#ifndef OLTAP_STORAGE_CATALOG_H_
#define OLTAP_STORAGE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace oltap {

namespace opt {
struct TableStats;  // opt/stats.h — the catalog only stores the handle
}  // namespace opt

// Name → table registry shared by the transaction manager, planner, and
// workload drivers. Table objects are stable for the catalog's lifetime
// (DROP is intentionally unsupported: none of the surveyed experiments
// needs it and it would complicate snapshot pinning for little value).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Logs a table creation: commits the table's CREATE TABLE record
  // durably and runs `publish` — which makes the table visible — inside
  // that commit; returns the logging error, without publishing, when the
  // record cannot be made durable. A WAL-backed Database installs one
  // (TransactionManager::CommitDdl). Install before creating tables.
  using CreateHook = std::function<Status(
      const Table& table, const std::function<Status()>& publish)>;
  void SetCreateHook(CreateHook hook) {
    std::lock_guard<std::mutex> ddl(ddl_mu_);
    create_hook_ = std::move(hook);
  }

  // Creates a base table, through the create hook when one is installed.
  Status CreateTable(const std::string& name, Schema schema,
                     TableFormat format) {
    std::lock_guard<std::mutex> ddl(ddl_mu_);
    if (GetTable(name) != nullptr) {
      return Status::AlreadyExists("table exists: " + name);
    }
    auto table = std::make_unique<Table>(name, std::move(schema), format);
    if (!create_hook_) return Insert(std::move(table));
    const Table& created = *table;
    return create_hook_(created, [&] { return Insert(std::move(table)); });
  }

  // Adds `table` without logging its creation: WAL replay re-creating a
  // logged table, and a materialized view adding its unlogged backing
  // table.
  Status AddTable(std::unique_ptr<Table> table) {
    std::lock_guard<std::mutex> ddl(ddl_mu_);
    return Insert(std::move(table));
  }

  // Narrow escape hatch for failed CREATE MATERIALIZED VIEW cleanup ONLY:
  // removes a table that was just created and never handed out. General
  // DROP stays unsupported (Table pointers are assumed stable).
  void DropTable(const std::string& name) {
    std::unique_lock lock(mu_);
    tables_.erase(name);
    stats_.erase(name);
    BumpEpoch();
  }

  Table* GetTable(const std::string& name) const {
    std::shared_lock lock(mu_);
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second.get();
  }

  std::vector<std::string> TableNames() const {
    std::shared_lock lock(mu_);
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto& [name, table] : tables_) names.push_back(name);
    return names;
  }

  std::vector<Table*> AllTables() const {
    std::shared_lock lock(mu_);
    std::vector<Table*> out;
    out.reserve(tables_.size());
    for (const auto& [name, table] : tables_) out.push_back(table.get());
    return out;
  }

  // Optimizer statistics attached by ANALYZE. Snapshots are immutable;
  // readers hold them by shared_ptr so a concurrent re-ANALYZE never
  // invalidates an in-flight plan.
  void SetTableStats(const std::string& name,
                     std::shared_ptr<const opt::TableStats> stats) {
    std::unique_lock lock(mu_);
    stats_[name] = std::move(stats);
    BumpEpoch();
  }

  std::shared_ptr<const opt::TableStats> GetTableStats(
      const std::string& name) const {
    std::shared_lock lock(mu_);
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : it->second;
  }

  // Catalog epoch: bumped by every change that can alter how a SELECT
  // binds, costs or routes — CreateTable, AddTable, DropTable,
  // SetTableStats, and
  // materialized-view registration. Cached front-end work stamped with an
  // older epoch is rebuilt. Each bump happens after its change is
  // visible, so work that read the new epoch also sees the change.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  // Caller holds ddl_mu_.
  Status Insert(std::unique_ptr<Table> table) {
    std::unique_lock lock(mu_);
    const std::string name = table->name();
    if (!tables_.emplace(name, std::move(table)).second) {
      return Status::AlreadyExists("table exists: " + name);
    }
    BumpEpoch();
    return Status::OK();
  }

  std::atomic<uint64_t> epoch_{0};
  // Serializes table creation, so a creation is logged at most once and
  // in the order the tables appear.
  std::mutex ddl_mu_;
  CreateHook create_hook_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, std::shared_ptr<const opt::TableStats>>
      stats_;
};

}  // namespace oltap

#endif  // OLTAP_STORAGE_CATALOG_H_
