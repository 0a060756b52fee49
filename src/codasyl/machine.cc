#include "codasyl/machine.h"

#include <algorithm>

#include "common/string_util.h"

namespace dbpc {

namespace {

/// Owner record id of the current occurrence of `set`, given the set's
/// currency record `current` (member or owner side), or 0 when the
/// occurrence is not established.
RecordId OccurrenceOwner(const Database& db, const SetDef& set,
                         RecordId current) {
  if (set.system_owned()) return kSystemOwner;
  if (current == 0) return 0;
  if (db.IsA(current, set.owner)) return current;
  if (db.IsA(current, set.member)) return db.OwnerOf(set.name, current);
  return 0;
}

}  // namespace

void CodasylMachine::MakeCurrent(RecordId id) {
  cur_run_unit_ = id;
  Result<std::string> type = db_->TypeOf(id);
  if (!type.ok()) return;
  cur_of_type_[ToUpper(*type)] = id;
  for (const SetDef& set : db_->schema().sets()) {
    if (EqualsIgnoreCase(set.member, *type)) {
      // Only establish set currency if actually connected.
      if (set.system_owned() || db_->OwnerOf(set.name, id) != 0) {
        cur_of_set_[ToUpper(set.name)] = id;
      }
    } else if (EqualsIgnoreCase(set.owner, *type)) {
      cur_of_set_[ToUpper(set.name)] = id;
    }
  }
}

RecordId CodasylMachine::CurrentOfType(const std::string& record_type) const {
  auto it = cur_of_type_.find(ToUpper(record_type));
  return it == cur_of_type_.end() ? 0 : it->second;
}

RecordId CodasylMachine::CurrentOfSet(const std::string& set_name) const {
  auto it = cur_of_set_.find(ToUpper(set_name));
  return it == cur_of_set_.end() ? 0 : it->second;
}

void CodasylMachine::Reset() {
  cur_run_unit_ = 0;
  cur_of_type_.clear();
  cur_of_set_.clear();
  status_ = db_status::kOk;
  last_error_.clear();
}

Status CodasylMachine::FindAny(const std::string& record_type,
                               const Predicate* pred,
                               const HostEnv& host_env) {
  if (db_->schema().FindRecordType(record_type) == nullptr) {
    return Status::NotFound("record type " + record_type);
  }
  for (RecordId id : db_->AllOfType(record_type)) {
    bool keep = true;
    if (pred != nullptr) {
      DBPC_ASSIGN_OR_RETURN(keep, pred->Evaluate(db_->FieldGetter(id), host_env));
    }
    if (keep) {
      MakeCurrent(id);
      SetStatus(db_status::kOk);
      return Status::OK();
    }
  }
  SetStatus(db_status::kNotFound);
  return Status::OK();
}

Status CodasylMachine::FindDuplicate(const std::string& record_type,
                                     const Predicate* pred,
                                     const HostEnv& host_env) {
  if (db_->schema().FindRecordType(record_type) == nullptr) {
    return Status::NotFound("record type " + record_type);
  }
  RecordId after = CurrentOfType(record_type);
  bool passed = (after == 0);
  for (RecordId id : db_->AllOfType(record_type)) {
    if (!passed) {
      if (id == after) passed = true;
      continue;
    }
    bool keep = true;
    if (pred != nullptr) {
      DBPC_ASSIGN_OR_RETURN(keep, pred->Evaluate(db_->FieldGetter(id), host_env));
    }
    if (keep) {
      MakeCurrent(id);
      SetStatus(db_status::kOk);
      return Status::OK();
    }
  }
  SetStatus(db_status::kNotFound);
  return Status::OK();
}

Status CodasylMachine::FindFirst(const std::string& record_type,
                                 const std::string& set_name,
                                 const Predicate* using_pred,
                                 const HostEnv& host_env) {
  const SetDef* set = db_->schema().FindSet(set_name);
  if (set == nullptr) return Status::NotFound("set " + set_name);
  if (!EqualsIgnoreCase(set->member, record_type)) {
    return Status::TypeError(record_type + " is not the member type of " +
                             set_name);
  }
  RecordId owner = OccurrenceOwner(*db_, *set, CurrentOfSet(set_name));
  if (owner == 0) {
    last_error_ = "current occurrence of " + set_name + " not established";
    SetStatus(db_status::kNotFound);
    return Status::OK();
  }
  // No mutation happens while scanning, so the member list can be
  // borrowed instead of copied.
  for (RecordId id : db_->MembersRef(set_name, owner)) {
    bool keep = true;
    if (using_pred != nullptr) {
      DBPC_ASSIGN_OR_RETURN(
          keep, using_pred->Evaluate(db_->FieldGetter(id), host_env));
    }
    if (keep) {
      MakeCurrent(id);
      SetStatus(db_status::kOk);
      return Status::OK();
    }
  }
  SetStatus(db_status::kEndOfSet);
  return Status::OK();
}

Status CodasylMachine::FindNext(const std::string& record_type,
                                const std::string& set_name,
                                const Predicate* using_pred,
                                const HostEnv& host_env) {
  const SetDef* set = db_->schema().FindSet(set_name);
  if (set == nullptr) return Status::NotFound("set " + set_name);
  if (!EqualsIgnoreCase(set->member, record_type)) {
    return Status::TypeError(record_type + " is not the member type of " +
                             set_name);
  }
  RecordId current = CurrentOfSet(set_name);
  RecordId owner = OccurrenceOwner(*db_, *set, current);
  if (owner == 0) {
    last_error_ = "current occurrence of " + set_name + " not established";
    SetStatus(db_status::kNotFound);
    return Status::OK();
  }
  const std::vector<RecordId>& members = db_->MembersRef(set_name, owner);
  size_t start = 0;
  if (current != 0) {
    if (db_->IsA(current, set->member)) {
      auto it = std::find(members.begin(), members.end(), current);
      if (it != members.end()) {
        start = static_cast<size_t>(it - members.begin()) + 1;
      }
    }
    // When currency is on the owner side, the scan starts at the first
    // member, i.e. FIND NEXT behaves like FIND FIRST.
  }
  for (size_t i = start; i < members.size(); ++i) {
    bool keep = true;
    if (using_pred != nullptr) {
      DBPC_ASSIGN_OR_RETURN(
          keep, using_pred->Evaluate(db_->FieldGetter(members[i]), host_env));
    }
    if (keep) {
      MakeCurrent(members[i]);
      SetStatus(db_status::kOk);
      return Status::OK();
    }
  }
  SetStatus(db_status::kEndOfSet);
  return Status::OK();
}

Status CodasylMachine::FindOwner(const std::string& set_name) {
  const SetDef* set = db_->schema().FindSet(set_name);
  if (set == nullptr) return Status::NotFound("set " + set_name);
  if (set->system_owned()) {
    return Status::InvalidArgument("set " + set_name +
                                   " is system-owned; it has no owner record");
  }
  RecordId owner = OccurrenceOwner(*db_, *set, CurrentOfSet(set_name));
  if (owner == 0 || owner == kSystemOwner) {
    last_error_ = "current occurrence of " + set_name + " not established";
    SetStatus(db_status::kNotFound);
    return Status::OK();
  }
  MakeCurrent(owner);
  SetStatus(db_status::kOk);
  return Status::OK();
}

Result<Value> CodasylMachine::Get(const std::string& field) const {
  if (cur_run_unit_ == 0) {
    return Status::InvalidArgument("GET with no current of run-unit");
  }
  return db_->GetField(cur_run_unit_, field);
}

Status CodasylMachine::StoreRecord(const std::string& record_type,
                                   const FieldMap& fields) {
  const RecordTypeDef* type = db_->schema().FindRecordType(record_type);
  if (type == nullptr) return Status::NotFound("record type " + record_type);
  StoreRequest request;
  request.type = record_type;
  request.fields = fields;
  for (const SetDef* set : db_->schema().SetsWithMember(record_type)) {
    if (set->system_owned()) continue;  // connected implicitly
    if (set->insertion != InsertionClass::kAutomatic) continue;
    RecordId owner = OccurrenceOwner(*db_, *set, CurrentOfSet(set->name));
    if (owner == 0) {
      last_error_ = "AUTOMATIC set " + set->name +
                    " has no current occurrence for STORE";
      SetStatus(db_status::kNotFound);
      return Status::OK();
    }
    request.connect[set->name] = owner;
  }
  Result<RecordId> id = db_->StoreRecord(request);
  if (!id.ok()) {
    if (id.status().code() == StatusCode::kConstraintViolation) {
      last_error_ = id.status().message();
      SetStatus(db_status::kNotFound);
      return Status::OK();
    }
    return id.status();
  }
  MakeCurrent(*id);
  SetStatus(db_status::kOk);
  return Status::OK();
}

Status CodasylMachine::Modify(const FieldMap& updates) {
  if (cur_run_unit_ == 0) {
    return Status::InvalidArgument("MODIFY with no current of run-unit");
  }
  Status s = db_->ModifyRecord(cur_run_unit_, updates);
  if (!s.ok()) {
    if (s.code() == StatusCode::kConstraintViolation) {
      last_error_ = s.message();
      SetStatus(db_status::kNotFound);
      return Status::OK();
    }
    return s;
  }
  SetStatus(db_status::kOk);
  return Status::OK();
}

Status CodasylMachine::Erase() {
  if (cur_run_unit_ == 0) {
    return Status::InvalidArgument("ERASE with no current of run-unit");
  }
  RecordId victim = cur_run_unit_;
  Status s = db_->EraseRecord(victim);
  if (!s.ok()) {
    if (s.code() == StatusCode::kConstraintViolation) {
      last_error_ = s.message();
      SetStatus(db_status::kNotFound);
      return Status::OK();
    }
    return s;
  }
  // Purge dangling currencies.
  cur_run_unit_ = 0;
  for (auto it = cur_of_type_.begin(); it != cur_of_type_.end();) {
    if (!db_->Exists(it->second)) {
      it = cur_of_type_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = cur_of_set_.begin(); it != cur_of_set_.end();) {
    if (!db_->Exists(it->second)) {
      it = cur_of_set_.erase(it);
    } else {
      ++it;
    }
  }
  SetStatus(db_status::kOk);
  return Status::OK();
}

Status CodasylMachine::Connect(const std::string& set_name) {
  if (cur_run_unit_ == 0) {
    return Status::InvalidArgument("CONNECT with no current of run-unit");
  }
  const SetDef* set = db_->schema().FindSet(set_name);
  if (set == nullptr) return Status::NotFound("set " + set_name);
  RecordId owner = OccurrenceOwner(*db_, *set, CurrentOfSet(set_name));
  // The current of run-unit being the would-be member must not define the
  // occurrence; resolve via set currency only, falling back to owner-type
  // currency.
  if (owner == 0 || owner == cur_run_unit_) {
    RecordId owner_cur = CurrentOfType(set->owner);
    if (owner_cur != 0) owner = owner_cur;
  }
  if (owner == 0) {
    last_error_ = "no current occurrence of " + set_name + " for CONNECT";
    SetStatus(db_status::kNotFound);
    return Status::OK();
  }
  Status s = db_->Connect(set_name, cur_run_unit_, owner);
  if (!s.ok()) {
    if (s.code() == StatusCode::kConstraintViolation ||
        s.code() == StatusCode::kAlreadyExists) {
      last_error_ = s.message();
      SetStatus(db_status::kNotFound);
      return Status::OK();
    }
    return s;
  }
  cur_of_set_[ToUpper(set_name)] = cur_run_unit_;
  SetStatus(db_status::kOk);
  return Status::OK();
}

Status CodasylMachine::Disconnect(const std::string& set_name) {
  if (cur_run_unit_ == 0) {
    return Status::InvalidArgument("DISCONNECT with no current of run-unit");
  }
  Status s = db_->Disconnect(set_name, cur_run_unit_);
  if (!s.ok()) {
    if (s.code() == StatusCode::kConstraintViolation ||
        s.code() == StatusCode::kNotFound) {
      last_error_ = s.message();
      SetStatus(db_status::kNotFound);
      return Status::OK();
    }
    return s;
  }
  SetStatus(db_status::kOk);
  return Status::OK();
}

}  // namespace dbpc
