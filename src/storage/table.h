#ifndef CLAIMS_STORAGE_TABLE_H_
#define CLAIMS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "storage/block.h"
#include "storage/partition.h"
#include "storage/schema.h"

namespace claims {

/// One horizontal partition of a table: a sequence of immutable 64 KB blocks
/// resident on one cluster node. Block i carries sequence number i, so an
/// unfiltered scan emits the storage blocks themselves in merge order.
class TablePartition {
 public:
  explicit TablePartition(const Schema* schema) : schema_(schema) {}

  int64_t num_rows() const { return num_rows_; }
  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  const BlockPtr& block(int i) const { return blocks_[i]; }
  const std::vector<BlockPtr>& blocks() const { return blocks_; }

  /// Reserves a row slot, opening (and numbering) a new block when the
  /// current one is full. Loading only: rows must not be appended once a
  /// query may scan the partition.
  char* AppendRowSlot();

  /// Total payload bytes across blocks.
  int64_t bytes() const;

 private:
  const Schema* schema_;
  std::vector<BlockPtr> blocks_;
  std::shared_ptr<Block> tail_;  ///< the last block, still being filled
  int64_t num_rows_ = 0;
};

/// An in-memory table hash-partitioned across cluster nodes on its partition
/// key (paper §5.1: tables are hash-partitioned and kept on the 10 nodes).
/// Partition i lives on node i.
class Table {
 public:
  /// `partition_key_cols` may be empty, in which case appended rows are
  /// spread round-robin.
  Table(std::string name, Schema schema, int num_partitions,
        std::vector<int> partition_key_cols);

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(Table);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  const TablePartition& partition(int i) const { return partitions_[i]; }
  const std::vector<int>& partition_key_cols() const {
    return partition_key_cols_;
  }

  int64_t num_rows() const;
  int64_t bytes() const;

  /// Reserves a slot in the partition chosen by the row's key hash. Caller
  /// fills the returned row, then the key columns must not change. For keyed
  /// tables the caller instead uses AppendValues (the key must be known to
  /// route); raw slots are only valid for round-robin tables.
  char* AppendRowSlotRoundRobin();

  /// Appends a full row of values, routing by partition key hash.
  void AppendValues(const std::vector<Value>& values);

  /// Appends a prepared raw row (row_size bytes), routing by key hash.
  void AppendRawRow(const char* row);

 private:
  std::string name_;
  Schema schema_;
  std::vector<int> partition_key_cols_;
  std::vector<TablePartition> partitions_;
  int round_robin_next_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace claims

#endif  // CLAIMS_STORAGE_TABLE_H_
