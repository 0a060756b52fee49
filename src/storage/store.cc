#include "storage/store.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace dbpc {

RecordId Store::Insert(std::string type, FieldMap fields) {
  RecordId id = next_id_++;
  StoredRecord rec;
  rec.id = id;
  rec.type = std::move(type);
  rec.fields = std::move(fields);
  by_type_[rec.type].push_back(id);
  // Ids are monotonic, so the new slot is at or past the heap's end; any
  // gap is the ids of adopted columnar rows, which stay empty slots.
  heap_.resize(id - 1);
  heap_.push_back(std::move(rec));
  ++heap_live_;
  return id;
}

const ExtentTable& Store::AdoptExtents(ExtentTable table) {
  const RecordId first = next_id_;
  const size_t rows = table.rows();
  next_id_ += rows;
  table.AssignIds(first);
  std::vector<RecordId>& dir = by_type_[table.type()];
  dir.reserve(dir.size() + rows);
  for (size_t r = 0; r < rows; ++r) {
    dir.push_back(first + static_cast<RecordId>(r));
  }
  ColumnarSegment seg{std::move(table), std::vector<bool>(rows, false), rows};
  // insert_or_assign: an empty adoption leaves next_id_ unchanged, so a
  // later adoption may legitimately reuse the key of a zero-row segment.
  auto it = segments_.insert_or_assign(first, std::move(seg)).first;
  columnar_live_ += rows;
  return it->second.table;
}

std::pair<Store::ColumnarSegment*, size_t> Store::SegmentRow(
    RecordId id) const {
  if (segments_.empty()) return {nullptr, 0};
  auto it = segments_.upper_bound(id);
  if (it == segments_.begin()) return {nullptr, 0};
  --it;
  ColumnarSegment& seg = it->second;
  const size_t row = static_cast<size_t>(id - it->first);
  if (row >= seg.table.rows() || seg.vacated[row]) return {nullptr, 0};
  return {&seg, row};
}

const StoredRecord* Store::Promote(RecordId id) const {
  auto [seg, row] = SegmentRow(id);
  if (seg == nullptr) return nullptr;
  const ExtentTable& table = seg->table;
  StoredRecord rec;
  rec.id = id;
  rec.type = table.type();
  for (size_t c = 0; c < table.columns(); ++c) {
    rec.fields.emplace(table.field_names()[c], table.At(row, c));
  }
  seg->vacated[row] = true;
  --seg->live;
  --columnar_live_;
  if (heap_.size() < id) heap_.resize(id);
  StoredRecord& slot = heap_[id - 1];
  slot = std::move(rec);
  ++heap_live_;
  return &slot;
}

Status Store::Remove(RecordId id) {
  StoredRecord* rec = HeapRecord(id);
  std::pair<ColumnarSegment*, size_t> columnar{nullptr, 0};
  if (rec == nullptr) {
    columnar = SegmentRow(id);
    if (columnar.first == nullptr) {
      return Status::NotFound("record " + std::to_string(id));
    }
  }
  const std::string& type =
      rec != nullptr ? rec->type : columnar.first->table.type();
  auto dir = by_type_.find(type);
  if (dir != by_type_.end()) {
    std::vector<RecordId>& ids = dir->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), id);
    if (pos != ids.end() && *pos == id) ids.erase(pos);
  }
  if (rec != nullptr) {
    *rec = StoredRecord();  // id 0 marks the slot empty
    --heap_live_;
    return Status::OK();
  }
  auto [seg, row] = columnar;
  seg->vacated[row] = true;
  --seg->live;
  --columnar_live_;
  return Status::OK();
}

bool Store::Exists(RecordId id) const {
  return HeapRecord(id) != nullptr || SegmentRow(id).first != nullptr;
}

const StoredRecord* Store::Get(RecordId id) const {
  const StoredRecord* rec = HeapRecord(id);
  return rec != nullptr ? rec : Promote(id);
}

StoredRecord* Store::GetMutable(RecordId id) {
  return const_cast<StoredRecord*>(Get(id));
}

const std::vector<RecordId>& Store::OfType(const std::string& type) const {
  static const std::vector<RecordId> kEmpty;
  auto it = by_type_.find(type);
  return it == by_type_.end() ? kEmpty : it->second;
}

std::vector<RecordId> Store::AllRecords() const {
  std::vector<RecordId> heap_ids;
  heap_ids.reserve(heap_live_);
  for (const StoredRecord& rec : heap_) {
    if (rec.id != 0) heap_ids.push_back(rec.id);
  }
  if (columnar_live_ == 0) return heap_ids;
  std::vector<RecordId> columnar_ids;
  columnar_ids.reserve(columnar_live_);
  for (const auto& [first, seg] : segments_) {
    for (size_t r = 0; r < seg.table.rows(); ++r) {
      if (!seg.vacated[r]) {
        columnar_ids.push_back(first + static_cast<RecordId>(r));
      }
    }
  }
  // Both runs are ascending (slot order; rows within a segment ascend).
  std::vector<RecordId> out;
  out.reserve(heap_ids.size() + columnar_ids.size());
  std::merge(heap_ids.begin(), heap_ids.end(), columnar_ids.begin(),
             columnar_ids.end(), std::back_inserter(out));
  return out;
}

std::vector<Store::ColumnarRun> Store::ColumnarRuns(
    const std::string& type) const {
  std::vector<ColumnarRun> runs;
  for (const auto& [first, seg] : segments_) {
    if (seg.table.type() != type) continue;
    runs.push_back({&seg.table, first, &seg.vacated, seg.live});
  }
  return runs;
}

Status Store::Link(const std::string& set_name, RecordId owner,
                   RecordId member, size_t position) {
  SetIndex& idx = sets_[set_name];
  // Single probe: emplace only succeeds when not yet a member.
  if (!idx.owner_of.emplace(member, owner).second) {
    return Status::AlreadyExists("record " + std::to_string(member) +
                                 " already a member of " + set_name);
  }
  std::vector<RecordId>& members = idx.members_of[owner];
  if (position > members.size()) position = members.size();
  members.insert(members.begin() + static_cast<ptrdiff_t>(position), member);
  return Status::OK();
}

Status Store::LinkLast(const std::string& set_name, RecordId owner,
                       RecordId member) {
  SetIndex& idx = sets_[set_name];
  if (!idx.owner_of.emplace(member, owner).second) {
    return Status::AlreadyExists("record " + std::to_string(member) +
                                 " already a member of " + set_name);
  }
  idx.members_of[owner].push_back(member);
  return Status::OK();
}

Status Store::Unlink(const std::string& set_name, RecordId member) {
  auto set_it = sets_.find(set_name);
  if (set_it == sets_.end()) {
    return Status::NotFound("set " + set_name + " has no occurrences");
  }
  SetIndex& idx = set_it->second;
  auto it = idx.owner_of.find(member);
  if (it == idx.owner_of.end()) {
    return Status::NotFound("record " + std::to_string(member) +
                            " not a member of " + set_name);
  }
  std::vector<RecordId>& members = idx.members_of[it->second];
  members.erase(std::remove(members.begin(), members.end(), member),
                members.end());
  idx.owner_of.erase(it);
  return Status::OK();
}

RecordId Store::OwnerOf(const std::string& set_name, RecordId member) const {
  auto set_it = sets_.find(set_name);
  if (set_it == sets_.end()) return 0;
  auto it = set_it->second.owner_of.find(member);
  return it == set_it->second.owner_of.end() ? 0 : it->second;
}

const std::vector<RecordId>& Store::Members(const std::string& set_name,
                                            RecordId owner) const {
  static const std::vector<RecordId> kEmpty;
  auto set_it = sets_.find(set_name);
  if (set_it == sets_.end()) return kEmpty;
  auto it = set_it->second.members_of.find(owner);
  return it == set_it->second.members_of.end() ? kEmpty : it->second;
}

}  // namespace dbpc
