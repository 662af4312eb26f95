#include "storage/row_store.h"

#include <algorithm>
#include <cstdlib>
#include <new>

#include "common/hash.h"
#include "common/logging.h"

namespace oltap {

RowStore::RowStore(Schema schema) : schema_(std::move(schema)) {
  head_ = NewEntry("", kMaxHeight);
}

RowStore::~RowStore() {
  Entry* node = head_;
  while (node != nullptr) {
    Entry* next = node->next[0].load(std::memory_order_relaxed);
    // Free the version chain.
    RowVersion* v = node->head.load(std::memory_order_relaxed);
    while (v != nullptr) {
      RowVersion* older = v->next;
      delete v;
      v = older;
    }
    node->~Entry();
    // Destroy the tail of the tower (placement-constructed in NewEntry).
    std::free(node);
    node = next;
  }
}

RowStore::Entry* RowStore::NewEntry(std::string_view key, int height) {
  size_t size =
      sizeof(Entry) + sizeof(std::atomic<Entry*>) * (height - 1);
  void* mem = std::malloc(size);
  OLTAP_CHECK(mem != nullptr);
  Entry* e = new (mem) Entry();
  e->key.assign(key.data(), key.size());
  e->height = height;
  for (int i = 1; i < height; ++i) {
    new (&e->next[i]) std::atomic<Entry*>(nullptr);
  }
  return e;
}

int RowStore::RandomHeight() {
  uint64_t seed =
      height_seed_.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed);
  uint64_t r = Mix64(seed);
  int height = 1;
  // p = 1/4 per level.
  while (height < kMaxHeight && (r & 3) == 0) {
    ++height;
    r >>= 2;
  }
  return height;
}

RowStore::Entry* RowStore::FindGreaterOrEqual(std::string_view target,
                                              Entry** prev) const {
  Entry* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Entry* next = x->next[level].load(std::memory_order_acquire);
    if (next != nullptr && next->key < target) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      --level;
    }
  }
}

RowStore::Entry* RowStore::Get(std::string_view key) const {
  Entry* node = FindGreaterOrEqual(key, nullptr);
  if (node != nullptr && node->key == key) return node;
  return nullptr;
}

RowStore::Entry* RowStore::GetOrCreate(std::string_view key) {
  Entry* prev[kMaxHeight];
  while (true) {
    // The search fills prev[] only below the height it read; a racing
    // insert may raise the height before this one links, so the levels
    // above start from the head sentinel.
    std::fill(prev, prev + kMaxHeight, head_);
    Entry* node = FindGreaterOrEqual(key, prev);
    if (node != nullptr && node->key == key) return node;

    int height = RandomHeight();
    int cur_max = max_height_.load(std::memory_order_relaxed);
    if (height > cur_max) {
      // Raise the list height; racing raises are harmless (CAS keeps max).
      while (cur_max < height &&
             !max_height_.compare_exchange_weak(cur_max, height,
                                                std::memory_order_relaxed)) {
      }
    }

    Entry* e = NewEntry(key, height);
    // Link bottom-up; a level-0 failure means a racing insert of (possibly)
    // the same key, so restart from the search. The successor load must be
    // acquire: the ordering recheck below reads expected->key, which is
    // only safe against a concurrently *published* entry if this load
    // synchronizes with the publisher's release CAS.
    e->next[0].store(prev[0]->next[0].load(std::memory_order_acquire),
                     std::memory_order_relaxed);
    Entry* expected = e->next[0].load(std::memory_order_relaxed);
    // Recheck ordering: a racing insert may have placed a node between
    // prev[0] and its successor — including one with *this* key (<=, not
    // <: linking in front of a racing equal node would duplicate it; the
    // retry's search returns the existing entry instead).
    if ((expected != nullptr && expected->key <= key) ||
        !prev[0]->next[0].compare_exchange_strong(
            expected, e, std::memory_order_release)) {
      e->~Entry();
      std::free(e);
      continue;  // retry from scratch
    }
    num_entries_.fetch_add(1, std::memory_order_relaxed);

    for (int level = 1; level < height; ++level) {
      while (true) {
        Entry* p = prev[level];
        Entry* succ = p->next[level].load(std::memory_order_acquire);
        // Skip forward if new nodes were linked at this level meanwhile.
        while (succ != nullptr && succ->key < e->key) {
          p = succ;
          succ = p->next[level].load(std::memory_order_acquire);
        }
        if (succ == e) break;  // someone already linked us? impossible; safe.
        e->next[level].store(succ, std::memory_order_relaxed);
        if (p->next[level].compare_exchange_strong(
                succ, e, std::memory_order_release)) {
          break;
        }
      }
    }
    return e;
  }
}

bool RowStore::InstallVersion(Entry* entry, RowVersion* expected_head,
                              RowVersion* v) {
  v->next = expected_head;
  return entry->head.compare_exchange_strong(expected_head, v,
                                             std::memory_order_acq_rel);
}

RowStore::Iterator::Iterator(const RowStore* store) : store_(store) {}

void RowStore::Iterator::Seek(std::string_view target) {
  node_ = store_->FindGreaterOrEqual(target, nullptr);
}

void RowStore::Iterator::SeekToFirst() {
  node_ = store_->head_->next[0].load(std::memory_order_acquire);
}

void RowStore::Iterator::Next() {
  OLTAP_DCHECK(Valid());
  node_ = node_->next[0].load(std::memory_order_acquire);
}

RowTable::RowTable(Schema schema) : store_(std::move(schema)) {}

std::string RowTable::KeyFor(const Row& row) {
  const Schema& s = store_.schema();
  if (s.HasKey()) return EncodeKey(s, row);
  // Keyless tables get a monotone internal key: append-only semantics.
  uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::string key(8, '\0');
  for (int i = 0; i < 8; ++i) {
    key[i] = static_cast<char>((seq >> (56 - 8 * i)) & 0xff);
  }
  return key;
}

Status RowTable::InsertCommitted(const Row& row, Timestamp ts) {
  if (row.size() != store_.schema().num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  std::string key = KeyFor(row);
  RowStore::Entry* entry = store_.GetOrCreate(key);
  while (true) {
    RowVersion* head = entry->head.load(std::memory_order_acquire);
    if (head != nullptr && VersionVisible(*head, ts, /*self_txn_id=*/0)) {
      return Status::AlreadyExists("duplicate primary key");
    }
    auto* v = new RowVersion(row);
    v->begin.store(ts, std::memory_order_relaxed);
    if (RowStore::InstallVersion(entry, head, v)) return Status::OK();
    delete v;  // concurrent install won the race; re-examine
  }
}

Status RowTable::DeleteCommitted(std::string_view key, Timestamp ts) {
  RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return Status::NotFound("key not found");
  RowVersion* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr || !VersionVisible(*head, ts, 0)) {
    return Status::NotFound("key not live");
  }
  Timestamp expected = kMaxTimestamp;
  if (!head->end.compare_exchange_strong(expected, ts,
                                         std::memory_order_acq_rel)) {
    return Status::Aborted("concurrent write to key");
  }
  return Status::OK();
}

Status RowTable::UpdateCommitted(std::string_view key, const Row& new_row,
                                 Timestamp ts) {
  RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return Status::NotFound("key not found");
  RowVersion* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr || !VersionVisible(*head, ts, 0)) {
    return Status::NotFound("key not live");
  }
  Timestamp expected = kMaxTimestamp;
  if (!head->end.compare_exchange_strong(expected, ts,
                                         std::memory_order_acq_rel)) {
    return Status::Aborted("concurrent write to key");
  }
  auto* v = new RowVersion(new_row);
  v->begin.store(ts, std::memory_order_relaxed);
  if (!RowStore::InstallVersion(entry, head, v)) {
    // Another committed writer should be impossible once we closed `head`,
    // but stay safe: undo is not possible, so surface corruption loudly.
    delete v;
    return Status::Internal("version chain raced after delete stamp");
  }
  return Status::OK();
}

bool RowTable::Lookup(std::string_view key, Timestamp read_ts,
                      Row* out) const {
  const RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return false;
  for (const RowVersion* v = entry->head.load(std::memory_order_acquire);
       v != nullptr; v = v->next) {
    if (VersionVisible(*v, read_ts, 0)) {
      *out = v->data;
      return true;
    }
  }
  return false;
}

Timestamp RowTable::LastWriteTs(std::string_view key) const {
  const RowStore::Entry* entry = store_.Get(key);
  if (entry == nullptr) return 0;
  const RowVersion* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr) return 0;
  Timestamp begin = head->begin.load(std::memory_order_acquire);
  Timestamp end = head->end.load(std::memory_order_acquire);
  Timestamp last = IsTxnId(begin) ? 0 : begin;
  if (!IsTxnId(end) && end != kMaxTimestamp) last = std::max(last, end);
  return last;
}

void RowTable::ScanVisible(Timestamp read_ts,
                           const std::function<void(const Row&)>& fn) const {
  RowStore::Iterator it(&store_);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    for (const RowVersion* v =
             it.entry()->head.load(std::memory_order_acquire);
         v != nullptr; v = v->next) {
      if (VersionVisible(*v, read_ts, 0)) {
        fn(v->data);
        break;
      }
    }
  }
}

size_t RowTable::ScanRange(std::string_view start_key, size_t limit,
                           Timestamp read_ts,
                           const std::function<void(const Row&)>& fn) const {
  RowStore::Iterator it(&store_);
  size_t visited = 0;
  for (it.Seek(start_key); it.Valid() && visited < limit; it.Next()) {
    for (const RowVersion* v =
             it.entry()->head.load(std::memory_order_acquire);
         v != nullptr; v = v->next) {
      if (VersionVisible(*v, read_ts, 0)) {
        fn(v->data);
        ++visited;
        break;
      }
    }
  }
  return visited;
}

}  // namespace oltap
