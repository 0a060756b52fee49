#ifndef DBPC_STORAGE_STORE_H_
#define DBPC_STORAGE_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "storage/extent.h"
#include "storage/record.h"

namespace dbpc {

/// Untyped record heap plus owner-coupled set membership, shared by all
/// three data-model facades. The store knows nothing about schemas; the
/// `Database` engine layers validation and constraint enforcement on top.
///
/// Set occurrences are kept as explicit ordered member lists per owner, the
/// in-memory analogue of 1970s chain/pointer-array set implementations.
///
/// Bulk loads may hand the store whole extent tables via `AdoptExtents`:
/// the rows become live records immediately but stay columnar until a
/// record-at-a-time accessor first touches them, at which point they are
/// promoted (materialized) into the record heap. Record-at-a-time callers
/// cannot tell the difference — `Get` et al. are a view over both layouts.
///
/// The record heap is dense and indexed by id, so `Get` and `Exists` are
/// constant-time. A `Get` pointer stays valid until that record is removed
/// or the store is destroyed, however many other records are inserted,
/// adopted or promoted in the meantime.
class Store {
  struct SetIndex;  // defined below; named by BulkLinker

 public:
  /// Inserts a record and returns its new id.
  RecordId Insert(std::string type, FieldMap fields);

  /// Adopts a staged extent table as a columnar segment. Every row receives
  /// a fresh consecutive id (readable through `ExtentTable::IdAt` on the
  /// returned table) and becomes a live record of `table.type()`. Returns a
  /// reference to the adopted table, stable until the store is destroyed.
  const ExtentTable& AdoptExtents(ExtentTable table);

  /// Removes a record. The caller must already have disconnected it from
  /// every set (the engine's Erase handles ordering).
  Status Remove(RecordId id);

  bool Exists(RecordId id) const;
  const StoredRecord* Get(RecordId id) const;
  StoredRecord* GetMutable(RecordId id);

  /// Read-side accessor bound to one set: the set index is resolved once
  /// instead of per OwnerOf probe. An absent set binds to a null reader
  /// (every owner is 0, like OwnerOf). The bound index node is stable
  /// across unrelated set creation, so a reader stays valid as long as
  /// the store does.
  class SetReader {
   public:
    SetReader() = default;
    RecordId OwnerOf(RecordId member) const {
      if (idx_ == nullptr) return 0;
      auto it = idx_->owner_of.find(member);
      return it == idx_->owner_of.end() ? 0 : it->second;
    }

   private:
    friend class Store;
    explicit SetReader(const SetIndex* idx) : idx_(idx) {}
    const SetIndex* idx_ = nullptr;
  };
  SetReader ReaderFor(const std::string& set_name_upper) const {
    auto it = sets_.find(set_name_upper);
    return SetReader(it == sets_.end() ? nullptr : &it->second);
  }

  /// All live records of `type`, in ascending id (i.e. insertion) order.
  /// Served from a per-type directory: O(live-of-type), not a heap walk.
  const std::vector<RecordId>& OfType(const std::string& type) const;

  /// Copying wrapper around OfType for callers that mutate while iterating.
  std::vector<RecordId> AllOfType(const std::string& type) const {
    return OfType(type);
  }

  /// All live record ids in insertion order.
  std::vector<RecordId> AllRecords() const;

  /// One adopted, not-yet-fully-promoted columnar segment of a type, as
  /// exposed to bulk readers. Row r holds record `first_id + r` and is
  /// live iff !(*vacated)[r]; promoted or removed rows must be read
  /// through `Get` instead.
  struct ColumnarRun {
    const ExtentTable* table;
    RecordId first_id;
    const std::vector<bool>* vacated;
    size_t live = 0;
  };

  /// The columnar segments holding rows of `type`, ascending by first id.
  /// Bulk consumers that scan these directly skip per-record promotion —
  /// the whole point of keeping adopted extents columnar.
  std::vector<ColumnarRun> ColumnarRuns(const std::string& type) const;

  size_t LiveCount() const { return heap_live_ + columnar_live_; }

  // --- set membership -------------------------------------------------

  /// Links `member` into the `set_name` occurrence owned by `owner` at
  /// `position` within the member list. Fails if already a member.
  Status Link(const std::string& set_name, RecordId owner, RecordId member,
              size_t position);

  /// Appends `member` to the occurrence owned by `owner`.
  Status LinkLast(const std::string& set_name, RecordId owner,
                  RecordId member);

  /// Unlinks `member` from its occurrence of `set_name`.
  Status Unlink(const std::string& set_name, RecordId member);

  /// Append-only bulk linker bound to one set: the set index is resolved
  /// once instead of per link, and repeat owners (bulk loads link long
  /// owner runs) hit a one-entry cache instead of the occurrence table.
  /// LinkLast semantics, including the already-a-member failure.
  class BulkLinker {
   public:
    Status LinkLast(RecordId owner, RecordId member) {
      auto [it, inserted] = idx_->owner_of.emplace(member, owner);
      (void)it;
      if (!inserted) {
        return Status::AlreadyExists("record " + std::to_string(member) +
                                     " already a member of " + set_name_);
      }
      if (cached_members_ == nullptr || owner != cached_owner_) {
        cached_owner_ = owner;
        cached_members_ = &idx_->members_of[owner];
      }
      cached_members_->push_back(member);
      return Status::OK();
    }

   private:
    friend class Store;
    BulkLinker(SetIndex* idx, std::string set_name)
        : idx_(idx), set_name_(std::move(set_name)) {}
    SetIndex* idx_;
    std::string set_name_;
    RecordId cached_owner_ = 0;
    // Stable across inserts: unordered_map never moves mapped values.
    std::vector<RecordId>* cached_members_ = nullptr;
  };
  /// `expected_links` (when nonzero) pre-sizes the occurrence table for
  /// that many additional memberships, sparing bulk loads the rehashes.
  BulkLinker LinkerFor(const std::string& set_name_upper,
                       size_t expected_links = 0) {
    SetIndex& idx = sets_[set_name_upper];
    if (expected_links > 0) {
      idx.owner_of.reserve(idx.owner_of.size() + expected_links);
    }
    return BulkLinker(&idx, set_name_upper);
  }

  /// Owner of `member` within `set_name`, or 0 when not a member.
  RecordId OwnerOf(const std::string& set_name, RecordId member) const;

  /// Ordered members of the occurrence owned by `owner`; empty when the
  /// occurrence is empty or absent.
  const std::vector<RecordId>& Members(const std::string& set_name,
                                       RecordId owner) const;

  bool IsMember(const std::string& set_name, RecordId member) const {
    return OwnerOf(set_name, member) != 0;
  }

  /// Deep copy (used by the bridge baseline and by benchmarks).
  Store Clone() const { return *this; }

 private:
  struct SetIndex {
    std::unordered_map<RecordId, RecordId> owner_of;
    std::unordered_map<RecordId, std::vector<RecordId>> members_of;
  };

  /// One adopted extent table, keyed in `segments_` by the id of its first
  /// row (row r is record first_id + r). `vacated` marks rows that were
  /// promoted into the record heap or removed outright.
  struct ColumnarSegment {
    ExtentTable table;
    std::vector<bool> vacated;
    size_t live = 0;
  };

  /// Segment and row holding `id`, or {nullptr, 0} when `id` is not a live
  /// un-promoted columnar row. Mutable access from const methods is fine:
  /// the columnar members exist to serve logically-const promotion.
  std::pair<ColumnarSegment*, size_t> SegmentRow(RecordId id) const;

  /// The heap slot of `id` when it holds a record, else nullptr.
  StoredRecord* HeapRecord(RecordId id) const {
    if (id == 0 || id > heap_.size()) return nullptr;
    StoredRecord& slot = heap_[id - 1];
    return slot.id == 0 ? nullptr : &slot;
  }

  /// Materializes columnar row `id` into the record heap; nullptr when
  /// `id` is not a live columnar row. Promotion never changes the set of
  /// live records or any observable value, so it is logically const.
  const StoredRecord* Promote(RecordId id) const;

  RecordId next_id_ = 1;
  /// Slot i holds record id i + 1; a slot whose `id` is 0 is empty (a
  /// columnar row not yet promoted, or a removed record). A deque never
  /// relocates its elements when it grows at the end, which is what keeps
  /// `Get` pointers stable.
  mutable std::deque<StoredRecord> heap_;
  /// Occupied heap slots.
  mutable size_t heap_live_ = 0;
  mutable std::map<RecordId, ColumnarSegment> segments_;
  /// Live rows across all segments (not yet promoted or removed).
  mutable size_t columnar_live_ = 0;
  std::unordered_map<std::string, SetIndex> sets_;
  /// type -> live ids, ascending (ids are allocated monotonically, so
  /// appending on insert keeps each list in insertion order).
  std::unordered_map<std::string, std::vector<RecordId>> by_type_;
};

}  // namespace dbpc

#endif  // DBPC_STORAGE_STORE_H_
