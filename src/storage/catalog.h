#ifndef CLAIMS_STORAGE_CATALOG_H_
#define CLAIMS_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
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

  /// Estimated distinct-value count of one column (exact count over a sample
  /// capped at `sample_limit` rows, scaled). Used by the optimizer for
  /// group-by cardinality and join selectivity estimates.
  int64_t EstimateDistinct(const Table& table, int col,
                           int64_t sample_limit = 200000) const;

 private:
  std::map<std::string, TablePtr, std::less<>> tables_;
};

}  // namespace claims

#endif  // CLAIMS_STORAGE_CATALOG_H_
