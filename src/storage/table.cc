#include "storage/table.h"

namespace claims {

char* TablePartition::AppendRowSlot() {
  if (tail_ == nullptr || tail_->full()) {
    tail_ = MakeBlock(schema_->row_size());
    tail_->set_sequence_number(blocks_.size());
    blocks_.push_back(tail_);
  }
  ++num_rows_;
  return tail_->AppendRow();
}

int64_t TablePartition::bytes() const {
  int64_t total = 0;
  for (const BlockPtr& b : blocks_) total += b->payload_bytes();
  return total;
}

Table::Table(std::string name, Schema schema, int num_partitions,
             std::vector<int> partition_key_cols)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      partition_key_cols_(std::move(partition_key_cols)) {
  partitions_.reserve(num_partitions);
  for (int i = 0; i < num_partitions; ++i) partitions_.emplace_back(&schema_);
}

int64_t Table::num_rows() const {
  int64_t total = 0;
  for (const TablePartition& p : partitions_) total += p.num_rows();
  return total;
}

int64_t Table::bytes() const {
  int64_t total = 0;
  for (const TablePartition& p : partitions_) total += p.bytes();
  return total;
}

char* Table::AppendRowSlotRoundRobin() {
  int p = round_robin_next_;
  round_robin_next_ = (round_robin_next_ + 1) % num_partitions();
  return partitions_[p].AppendRowSlot();
}

void Table::AppendValues(const std::vector<Value>& values) {
  // Materialize into a scratch row, then route by key hash.
  std::vector<char> scratch(schema_.row_size());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    schema_.SetValue(scratch.data(), i, values[i]);
  }
  AppendRawRow(scratch.data());
}

void Table::AppendRawRow(const char* row) {
  char* slot;
  if (partition_key_cols_.empty()) {
    slot = AppendRowSlotRoundRobin();
  } else {
    uint64_t hash;
    HashKeys(schema_, row, 0, partition_key_cols_, 1, &hash);
    slot = partitions_[PartitionOf(hash, num_partitions())].AppendRowSlot();
  }
  std::memcpy(slot, row, schema_.row_size());
}

}  // namespace claims
