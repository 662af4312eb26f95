#ifndef OLTAP_STORAGE_ROW_STORE_H_
#define OLTAP_STORAGE_ROW_STORE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace oltap {

// In-memory row store keyed on the encoded primary key, backed by a
// lock-free skip list (the MemSQL design [26]): readers never take latches,
// writers insert towers with per-level CAS. Each entry anchors an MVCC
// version chain (newest first); transaction policy (who may install or
// finalize versions) lives in txn/, this class provides the mechanisms.
//
// Entries are never physically removed while the store is alive — deletes
// are logical (version end timestamps), matching the multi-version designs
// surveyed (DB2 BLU "deletes are logical operations"). All memory is
// reclaimed on destruction.
class RowStore {
 public:
  // Skip-list node. Public so scans and the transaction manager can walk
  // chains without an extra indirection.
  struct Entry {
    std::string key;
    std::atomic<RowVersion*> head{nullptr};
    int height = 1;
    // Tower of forward pointers; allocated inline after the struct.
    std::atomic<Entry*> next[1];
  };

  explicit RowStore(Schema schema);
  ~RowStore();

  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  const Schema& schema() const { return schema_; }

  // Returns the entry for `key`, inserting an empty one if absent.
  // Lock-free; safe from any number of threads.
  Entry* GetOrCreate(std::string_view key);

  // Returns the entry for `key` or nullptr. Wait-free readers.
  Entry* Get(std::string_view key) const;

  // Atomically pushes `v` as the new chain head if the current head is
  // `expected_head`; on success v->next == expected_head. Returns false on
  // a concurrent install (caller re-reads the head and decides: write-write
  // conflict in MVCC terms).
  static bool InstallVersion(Entry* entry, RowVersion* expected_head,
                             RowVersion* v);

  // Number of distinct keys ever inserted.
  size_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  // Ordered forward iterator over entries (key order). Safe concurrently
  // with inserts; may or may not observe entries inserted while iterating.
  class Iterator {
   public:
    explicit Iterator(const RowStore* store);

    bool Valid() const { return node_ != nullptr; }
    // Positions at the first entry with key >= target.
    void Seek(std::string_view target);
    void SeekToFirst();
    void Next();

    const std::string& key() const { return node_->key; }
    Entry* entry() const { return node_; }

   private:
    const RowStore* store_;
    Entry* node_ = nullptr;
  };

 private:
  static constexpr int kMaxHeight = 16;

  Entry* NewEntry(std::string_view key, int height);
  int RandomHeight();
  // Finds the first node with key >= target; fills prev[] towers if given.
  Entry* FindGreaterOrEqual(std::string_view target,
                            Entry** prev) const;

  Schema schema_;
  Entry* head_;  // sentinel with empty key and kMaxHeight tower
  std::atomic<int> max_height_{1};
  std::atomic<uint64_t> height_seed_{0x2545F4914F6CDD1DULL};
  std::atomic<size_t> num_entries_{0};
};

// Committed-write row engine: a thin transactional veneer over the
// lock-free skip list. Versions carry final commit timestamps (the
// transaction layer validates and orders commits before applying). This is
// the row mirror of a `Table`: the whole of a kRow table and the OLTP half
// of a kDual one.
class RowTable {
 public:
  explicit RowTable(Schema schema);

  const Schema& schema() const { return store_.schema(); }

  Status InsertCommitted(const Row& row, Timestamp ts);
  Status DeleteCommitted(std::string_view key, Timestamp ts);
  Status UpdateCommitted(std::string_view key, const Row& new_row,
                         Timestamp ts);

  bool Lookup(std::string_view key, Timestamp read_ts, Row* out) const;

  // Commit timestamp of the last write to `key`; 0 if never written.
  Timestamp LastWriteTs(std::string_view key) const;

  // Invokes fn for every row visible at read_ts, in key order.
  void ScanVisible(Timestamp read_ts,
                   const std::function<void(const Row&)>& fn) const;

  // Ordered short-range scan: visits up to `limit` visible rows with
  // encoded key >= start_key, in key order — the skip list's signature
  // OLTP access path (TPC-C "next orders of this district"), which
  // hash-indexed columnar tables cannot serve without a full scan.
  // Returns the number of rows visited.
  size_t ScanRange(std::string_view start_key, size_t limit,
                   Timestamp read_ts,
                   const std::function<void(const Row&)>& fn) const;

  size_t num_keys() const { return store_.num_entries(); }
  RowStore* store() { return &store_; }
  const RowStore* store() const { return &store_; }

 private:
  // Key for a row: the schema key, or an internal sequence for keyless
  // tables (append-only, e.g. TPC-C HISTORY).
  std::string KeyFor(const Row& row);

  RowStore store_;
  std::atomic<uint64_t> seq_{0};
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_ROW_STORE_H_
