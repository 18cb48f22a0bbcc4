#include "storage/catalog.h"

#include <cstring>
#include <string_view>
#include <unordered_set>

#include "common/string_util.h"

namespace claims {

Status Catalog::RegisterTable(TablePtr table) {
  std::string key = ToLower(table->name());
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists(
        StrFormat("table '%s' already registered", table->name().c_str()));
  }
  tables_.emplace(std::move(key), std::move(table));
  return Status::OK();
}

Result<TablePtr> Catalog::GetTable(std::string_view name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound(
        StrFormat("table '%s' not found", std::string(name).c_str()));
  }
  return it->second;
}

bool Catalog::HasTable(std::string_view name) const {
  return tables_.count(ToLower(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

int64_t Catalog::DistinctCount(const Table& table, int col) const {
  const auto registered = tables_.find(ToLower(table.name()));
  const bool memoize =
      registered != tables_.end() && registered->second.get() == &table;
  const std::pair<const Table*, int> key{&table, col};
  if (memoize) {
    std::lock_guard<std::mutex> lock(distinct_mu_);
    auto it = distinct_.find(key);
    if (it != distinct_.end()) return it->second;
  }
  // Counted outside the lock: two planners racing on one column count it
  // twice and store the same number.
  const Schema& schema = table.schema();
  const DataType type = schema.column(col).type;
  std::unordered_set<uint64_t> fixed;
  std::unordered_set<std::string_view> chars;
  for (int p = 0; p < table.num_partitions(); ++p) {
    for (const BlockPtr& block : table.partition(p).blocks()) {
      for (int32_t r = 0; r < block->num_rows(); ++r) {
        const char* row = block->RowAt(r);
        if (type == DataType::kChar) {
          chars.insert(schema.GetString(row, col));
        } else {
          uint64_t bits = 0;
          std::memcpy(&bits, row + schema.offset(col), TypeWidth(type, 0));
          fixed.insert(bits);
        }
      }
    }
  }
  const auto distinct = static_cast<int64_t>(fixed.size() + chars.size());
  if (memoize) {
    std::lock_guard<std::mutex> lock(distinct_mu_);
    distinct_.emplace(key, distinct);
  }
  return distinct;
}

}  // namespace claims
