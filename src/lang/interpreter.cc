#include "lang/interpreter.h"

#include "common/string_util.h"

namespace dbpc {

Interpreter::Interpreter(Database* db, IoScript script, RunOptions options)
    : db_(db), machine_(db), script_(std::move(script)), options_(options) {}

namespace {

/// Folds the engine operations a statement incurred into its span; only
/// counters that moved are recorded.
void AddOpStatsDelta(const SpanContext& span, const OpStats& before,
                     const OpStats& after) {
  auto add = [&](const char* name, uint64_t b, uint64_t a) {
    if (a > b) span.AddCounter(name, a - b);
  };
  add("records_read", before.records_read, after.records_read);
  add("records_written", before.records_written, after.records_written);
  add("records_erased", before.records_erased, after.records_erased);
  add("members_scanned", before.members_scanned, after.members_scanned);
  add("links_changed", before.links_changed, after.links_changed);
  add("index_probes", before.index_probes, after.index_probes);
  add("index_hits", before.index_hits, after.index_hits);
}

}  // namespace

Result<RunResult> Interpreter::Run(const Program& program, SpanContext span) {
  trace_.Clear();
  vars_.clear();
  collections_.clear();
  cursors_.clear();
  file_pos_.clear();
  terminal_pos_ = 0;
  steps_ = 0;
  stopped_ = false;
  status_ = db_status::kOk;
  machine_.Reset();

  if (!span.enabled()) {
    DBPC_RETURN_IF_ERROR(ExecBlock(program.body));
  } else {
    for (const Stmt& stmt : program.body) {
      if (stopped_) break;
      SpanContext stmt_span = span.StartChild(StmtKindName(stmt.kind));
      if (stmt.prov.has_value()) {
        stmt_span.SetAttribute("src",
                               std::to_string(stmt.prov->source_stmt_id));
        stmt_span.SetAttribute("rule", stmt.prov->rule);
      }
      OpStats before = db_->stats();
      Status s = ExecStmt(stmt);
      AddOpStatsDelta(stmt_span, before, db_->stats());
      stmt_span.End();
      DBPC_RETURN_IF_ERROR(s);
    }
  }

  RunResult result;
  result.trace = trace_;
  result.steps = steps_;
  result.completed = true;
  return result;
}

Result<Value> Interpreter::LookupVar(const std::string& name) const {
  if (name == "DB-STATUS") return Value::String(status_);
  auto it = vars_.find(name);
  if (it == vars_.end()) return Value::Null();
  return it->second;
}

Result<Value> Interpreter::EvalExpr(const HostExpr& expr) const {
  switch (expr.kind) {
    case HostExpr::Kind::kLiteral:
      return expr.literal;
    case HostExpr::Kind::kVar:
      return LookupVar(expr.var);
    case HostExpr::Kind::kBinary: {
      DBPC_ASSIGN_OR_RETURN(Value lhs, EvalExpr(expr.children[0]));
      DBPC_ASSIGN_OR_RETURN(Value rhs, EvalExpr(expr.children[1]));
      if (expr.op == '&') {
        return Value::String(lhs.ToDisplay() + rhs.ToDisplay());
      }
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      if (lhs.is_int() && rhs.is_int() && expr.op != '/') {
        int64_t a = lhs.as_int(), b = rhs.as_int();
        switch (expr.op) {
          case '+':
            return Value::Int(a + b);
          case '-':
            return Value::Int(a - b);
          case '*':
            return Value::Int(a * b);
        }
      }
      DBPC_ASSIGN_OR_RETURN(double a, lhs.ToNumeric());
      DBPC_ASSIGN_OR_RETURN(double b, rhs.ToNumeric());
      switch (expr.op) {
        case '+':
          return Value::Double(a + b);
        case '-':
          return Value::Double(a - b);
        case '*':
          return Value::Double(a * b);
        case '/':
          if (b == 0) return Status::InvalidArgument("division by zero");
          if (lhs.is_int() && rhs.is_int()) {
            return Value::Int(lhs.as_int() / rhs.as_int());
          }
          return Value::Double(a / b);
      }
      return Status::Internal("unknown operator");
    }
  }
  return Status::Internal("corrupt expression");
}

Result<bool> Interpreter::EvalCond(const HostCond& cond) const {
  switch (cond.kind) {
    case HostCond::Kind::kCompare: {
      DBPC_ASSIGN_OR_RETURN(Value lhs, EvalExpr(cond.operands[0]));
      if (cond.op == CompareOp::kIsNull) return lhs.is_null();
      if (cond.op == CompareOp::kIsNotNull) return !lhs.is_null();
      DBPC_ASSIGN_OR_RETURN(Value rhs, EvalExpr(cond.operands[1]));
      std::optional<int> cmp = QueryCompare(lhs, rhs);
      if (!cmp.has_value()) return false;
      return CompareHolds(cond.op, *cmp);
    }
    case HostCond::Kind::kAnd: {
      DBPC_ASSIGN_OR_RETURN(bool l, EvalCond(cond.children[0]));
      if (!l) return false;
      return EvalCond(cond.children[1]);
    }
    case HostCond::Kind::kOr: {
      DBPC_ASSIGN_OR_RETURN(bool l, EvalCond(cond.children[0]));
      if (l) return true;
      return EvalCond(cond.children[1]);
    }
    case HostCond::Kind::kNot: {
      DBPC_ASSIGN_OR_RETURN(bool l, EvalCond(cond.children[0]));
      return !l;
    }
  }
  return Status::Internal("corrupt condition");
}

HostEnv Interpreter::MakeHostEnv() const {
  return [this](const std::string& name) { return LookupVar(name); };
}

CollectionEnv Interpreter::MakeCollectionEnv() const {
  return [this](const std::string& name) -> Result<std::vector<RecordId>> {
    auto it = collections_.find(name);
    if (it != collections_.end()) return it->second;
    // A FOR EACH cursor in scope acts as a one-record collection, so
    // nested FIND paths can start from the current record of an enclosing
    // loop (the lifted form of nested navigational scans).
    auto cursor = cursors_.find(name);
    if (cursor != cursors_.end()) {
      return std::vector<RecordId>{cursor->second};
    }
    return Status::NotFound("collection variable " + name);
  };
}

Result<std::vector<RecordId>> Interpreter::EvalRetrieval(
    const Retrieval& retrieval) {
  Retrieval resolved = retrieval;
  DBPC_RETURN_IF_ERROR(ResolveFindQuery(db_->schema(), &resolved.query));
  return EvaluateRetrieval(*db_, resolved, MakeHostEnv(), MakeCollectionEnv());
}

Result<FieldMap> Interpreter::EvalAssignments(
    const std::vector<std::pair<std::string, HostExpr>>& assignments) const {
  FieldMap fields;
  for (const auto& [name, expr] : assignments) {
    DBPC_ASSIGN_OR_RETURN(Value v, EvalExpr(expr));
    fields[ToUpper(name)] = std::move(v);
  }
  return fields;
}

Status Interpreter::ExecBlock(const std::vector<Stmt>& body) {
  for (const Stmt& stmt : body) {
    if (stopped_) return Status::OK();
    DBPC_RETURN_IF_ERROR(ExecStmt(stmt));
  }
  return Status::OK();
}

Status Interpreter::ExecForEach(const Stmt& stmt) {
  std::vector<RecordId> ids;
  if (stmt.retrieval.has_value()) {
    DBPC_ASSIGN_OR_RETURN(ids, EvalRetrieval(*stmt.retrieval));
  } else {
    auto it = collections_.find(stmt.collection_var);
    if (it == collections_.end()) {
      return Status::NotFound("collection variable " + stmt.collection_var);
    }
    ids = it->second;
  }
  auto saved = cursors_.find(stmt.cursor) != cursors_.end()
                   ? std::optional<RecordId>(cursors_[stmt.cursor])
                   : std::nullopt;
  for (RecordId id : ids) {
    if (stopped_) break;
    if (!db_->Exists(id)) continue;  // erased by an earlier iteration
    cursors_[stmt.cursor] = id;
    DBPC_RETURN_IF_ERROR(ExecBlock(stmt.body));
  }
  if (saved.has_value()) {
    cursors_[stmt.cursor] = *saved;
  } else {
    cursors_.erase(stmt.cursor);
  }
  return Status::OK();
}

Status Interpreter::ExecStore(const Stmt& stmt) {
  DBPC_ASSIGN_OR_RETURN(FieldMap fields, EvalAssignments(stmt.assignments));
  StoreRequest request;
  request.type = stmt.record_type;
  request.fields = std::move(fields);
  for (const Stmt::OwnerSelect& sel : stmt.owners) {
    const SetDef* set = db_->schema().FindSet(sel.set_name);
    if (set == nullptr) return Status::NotFound("set " + sel.set_name);
    if (set->system_owned()) continue;  // implicit
    DBPC_ASSIGN_OR_RETURN(
        std::vector<RecordId> owners,
        db_->SelectWhere(set->owner, sel.pred, MakeHostEnv()));
    if (owners.size() != 1) {
      // Ambiguous or missing owner: the store fails like a DBTG set
      // selection failure; the program sees DB-STATUS 0326.
      status_ = db_status::kNotFound;
      return Status::OK();
    }
    request.connect[set->name] = owners[0];
  }
  Result<RecordId> id = db_->StoreRecord(request);
  if (!id.ok()) {
    if (id.status().code() == StatusCode::kConstraintViolation) {
      status_ = db_status::kNotFound;
      return Status::OK();
    }
    return id.status();
  }
  status_ = db_status::kOk;
  return Status::OK();
}

Status Interpreter::ExecCallDml(const Stmt& stmt) {
  DBPC_ASSIGN_OR_RETURN(Value verb, LookupVar(stmt.verb_var));
  std::string v = ToUpper(verb.ToDisplay());
  if (v == "FIND") {
    DBPC_RETURN_IF_ERROR(
        machine_.FindAny(stmt.record_type, nullptr, MakeHostEnv()));
  } else if (v == "ERASE") {
    DBPC_RETURN_IF_ERROR(
        machine_.FindAny(stmt.record_type, nullptr, MakeHostEnv()));
    if (machine_.db_status() == db_status::kOk) {
      DBPC_RETURN_IF_ERROR(machine_.Erase());
    }
  } else {
    return Status::InvalidArgument("CALL DML verb '" + v + "' unsupported");
  }
  status_ = machine_.db_status();
  return Status::OK();
}

Status Interpreter::ExecStmt(const Stmt& stmt) {
  if (++steps_ > options_.max_steps) {
    return Status::Internal("step limit exceeded");
  }
  switch (stmt.kind) {
    case StmtKind::kLet: {
      DBPC_ASSIGN_OR_RETURN(Value v, EvalExpr(stmt.exprs[0]));
      vars_[stmt.target_var] = std::move(v);
      return Status::OK();
    }
    case StmtKind::kDisplay: {
      std::string line;
      for (const HostExpr& e : stmt.exprs) {
        DBPC_ASSIGN_OR_RETURN(Value v, EvalExpr(e));
        line += v.ToDisplay();
      }
      trace_.RecordTerminalOut(std::move(line));
      return Status::OK();
    }
    case StmtKind::kAccept: {
      if (terminal_pos_ < script_.terminal_input.size()) {
        const std::string& line = script_.terminal_input[terminal_pos_++];
        vars_[stmt.target_var] = Value::String(line);
        trace_.RecordTerminalIn(line);
      } else {
        vars_[stmt.target_var] = Value::Null();
        trace_.RecordTerminalIn("<eof>");
      }
      return Status::OK();
    }
    case StmtKind::kRead: {
      auto file_it = script_.input_files.find(stmt.file);
      size_t& pos = file_pos_[stmt.file];
      if (file_it != script_.input_files.end() &&
          pos < file_it->second.size()) {
        const std::string& line = file_it->second[pos++];
        vars_[stmt.target_var] = Value::String(line);
        trace_.RecordFileRead(stmt.file, line);
      } else {
        vars_[stmt.target_var] = Value::Null();
        trace_.RecordFileRead(stmt.file, "<eof>");
      }
      return Status::OK();
    }
    case StmtKind::kWrite: {
      std::string line;
      for (const HostExpr& e : stmt.exprs) {
        DBPC_ASSIGN_OR_RETURN(Value v, EvalExpr(e));
        line += v.ToDisplay();
      }
      trace_.RecordFileWrite(stmt.file, std::move(line));
      return Status::OK();
    }
    case StmtKind::kIf: {
      DBPC_ASSIGN_OR_RETURN(bool taken, EvalCond(*stmt.cond));
      return ExecBlock(taken ? stmt.body : stmt.else_body);
    }
    case StmtKind::kWhile: {
      while (true) {
        if (stopped_) return Status::OK();
        if (++steps_ > options_.max_steps) {
          return Status::Internal("step limit exceeded");
        }
        DBPC_ASSIGN_OR_RETURN(bool keep, EvalCond(*stmt.cond));
        if (!keep) return Status::OK();
        DBPC_RETURN_IF_ERROR(ExecBlock(stmt.body));
      }
    }
    case StmtKind::kForEach:
      return ExecForEach(stmt);
    case StmtKind::kRetrieve: {
      DBPC_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                            EvalRetrieval(*stmt.retrieval));
      collections_[stmt.target_var] = std::move(ids);
      return Status::OK();
    }
    case StmtKind::kGetField: {
      auto it = cursors_.find(stmt.cursor);
      if (it == cursors_.end()) {
        return Status::NotFound("cursor " + stmt.cursor);
      }
      DBPC_ASSIGN_OR_RETURN(Value v, db_->GetField(it->second, stmt.field));
      vars_[stmt.target_var] = std::move(v);
      return Status::OK();
    }
    case StmtKind::kStore:
      return ExecStore(stmt);
    case StmtKind::kModify: {
      auto it = cursors_.find(stmt.cursor);
      if (it == cursors_.end()) {
        return Status::NotFound("cursor " + stmt.cursor);
      }
      DBPC_ASSIGN_OR_RETURN(FieldMap updates,
                            EvalAssignments(stmt.assignments));
      Status s = db_->ModifyRecord(it->second, updates);
      if (!s.ok() && s.code() == StatusCode::kConstraintViolation) {
        status_ = db_status::kNotFound;
        return Status::OK();
      }
      if (s.ok()) status_ = db_status::kOk;
      return s;
    }
    case StmtKind::kDelete: {
      auto it = cursors_.find(stmt.cursor);
      if (it == cursors_.end()) {
        return Status::NotFound("cursor " + stmt.cursor);
      }
      Status s = db_->EraseRecord(it->second);
      if (!s.ok() && s.code() == StatusCode::kConstraintViolation) {
        status_ = db_status::kNotFound;
        return Status::OK();
      }
      if (s.ok()) status_ = db_status::kOk;
      return s;
    }
    case StmtKind::kNavFind: {
      const NavFind& nav = *stmt.nav_find;
      const Predicate* pred =
          nav.pred.has_value() ? &nav.pred.value() : nullptr;
      Status s;
      switch (nav.mode) {
        case NavFind::Mode::kAny:
          s = machine_.FindAny(nav.record_type, pred, MakeHostEnv());
          break;
        case NavFind::Mode::kDuplicate:
          s = machine_.FindDuplicate(nav.record_type, pred, MakeHostEnv());
          break;
        case NavFind::Mode::kFirst:
          s = machine_.FindFirst(nav.record_type, nav.set_name, pred,
                                 MakeHostEnv());
          break;
        case NavFind::Mode::kNext:
          s = machine_.FindNext(nav.record_type, nav.set_name, pred,
                                MakeHostEnv());
          break;
        case NavFind::Mode::kOwner:
          s = machine_.FindOwner(nav.set_name);
          break;
      }
      DBPC_RETURN_IF_ERROR(s);
      status_ = machine_.db_status();
      return Status::OK();
    }
    case StmtKind::kNavGet: {
      DBPC_ASSIGN_OR_RETURN(Value v, machine_.Get(stmt.field));
      vars_[stmt.target_var] = std::move(v);
      return Status::OK();
    }
    case StmtKind::kNavStore: {
      DBPC_ASSIGN_OR_RETURN(FieldMap fields,
                            EvalAssignments(stmt.assignments));
      DBPC_RETURN_IF_ERROR(machine_.StoreRecord(stmt.record_type, fields));
      status_ = machine_.db_status();
      return Status::OK();
    }
    case StmtKind::kNavModify: {
      DBPC_ASSIGN_OR_RETURN(FieldMap updates,
                            EvalAssignments(stmt.assignments));
      DBPC_RETURN_IF_ERROR(machine_.Modify(updates));
      status_ = machine_.db_status();
      return Status::OK();
    }
    case StmtKind::kNavErase: {
      DBPC_RETURN_IF_ERROR(machine_.Erase());
      status_ = machine_.db_status();
      return Status::OK();
    }
    case StmtKind::kConnect: {
      DBPC_RETURN_IF_ERROR(machine_.Connect(stmt.set_name));
      status_ = machine_.db_status();
      return Status::OK();
    }
    case StmtKind::kDisconnect: {
      DBPC_RETURN_IF_ERROR(machine_.Disconnect(stmt.set_name));
      status_ = machine_.db_status();
      return Status::OK();
    }
    case StmtKind::kCallDml:
      return ExecCallDml(stmt);
    case StmtKind::kStop:
      stopped_ = true;
      return Status::OK();
  }
  return Status::Internal("corrupt statement");
}

}  // namespace dbpc
