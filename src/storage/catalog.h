#ifndef CLAIMS_STORAGE_CATALOG_H_
#define CLAIMS_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace claims {

/// Master-node table registry. Also the statistics source for the optimizer
/// and for translating physical plans into the virtual-time simulator.
class Catalog {
 public:
  Catalog() = default;

  Status RegisterTable(TablePtr table);
  Result<TablePtr> GetTable(std::string_view name) const;
  bool HasTable(std::string_view name) const;
  std::vector<std::string> TableNames() const;

  /// Exact number of distinct values in column `col` of `table`, counted
  /// with a hash set over every partition. Nothing is counted at load time:
  /// the first call counts, and for a table registered here the count is
  /// memoized per (table, column). Safe to call from concurrent planners.
  /// The optimizer reads it for join-output estimates.
  int64_t DistinctCount(const Table& table, int col) const;

 private:
  std::map<std::string, TablePtr, std::less<>> tables_;
  /// Guards distinct_, the only state a planner writes.
  mutable std::mutex distinct_mu_;
  mutable std::map<std::pair<const Table*, int>, int64_t> distinct_;
};

}  // namespace claims

#endif  // CLAIMS_STORAGE_CATALOG_H_
