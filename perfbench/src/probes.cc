#include "src/probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "core/data_buffer.h"
#include "core/elastic_iterator.h"
#include "exec/expr/expr.h"
#include "exec/hash_table.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/hash_join.h"
#include "exec/ops/scan.h"
#include "mem/block_pool.h"
#include "net/network.h"
#include "src/stats.h"

namespace perfbench {

namespace {

using claims::BlockPtr;
using claims::ExprPtr;
using claims::NextResult;
using claims::Value;

/// Replays materialized blocks (shared, not copied: operators only read
/// their input blocks) so an operator's own time can be told from the scan's.
/// Like the scan it stands in for, it is a stage beginner: it honours a
/// worker's terminate request at each block boundary.
class BlocksIterator : public claims::Iterator {
 public:
  explicit BlocksIterator(const std::vector<BlockPtr>* blocks)
      : blocks_(blocks) {}
  NextResult Open(claims::WorkerContext*) override {
    return NextResult::kSuccess;
  }
  NextResult Next(claims::WorkerContext* ctx, BlockPtr* out) override {
    if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
    size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= blocks_->size()) return NextResult::kEndOfFile;
    *out = (*blocks_)[i];
    return NextResult::kSuccess;
  }
  void Close() override {}

 private:
  const std::vector<BlockPtr>* blocks_;
  std::atomic<size_t> cursor_{0};
};

/// The tables and expressions a workload's probes run over.
struct ProbeData {
  const claims::Table* big = nullptr;    ///< largest table
  const claims::Table* build = nullptr;  ///< join build side
  std::vector<int> build_keys;
  std::vector<int> probe_keys;  ///< over `big`
  ExprPtr filter;               ///< scan→filter predicate over `big`
  std::vector<int> project_cols;
  std::vector<ExprPtr> group_exprs;
  std::vector<std::string> group_names;
  std::vector<claims::HashAggIterator::Aggregate> aggregates;
};

ExprPtr Col(const claims::Table& t, int i) {
  const claims::ColumnDef& c = t.schema().column(i);
  return claims::MakeColumnRef(i, c.type, c.name);
}

ExprPtr Cmp(claims::CompareOp op, ExprPtr l, Value v) {
  return claims::MakeCompare(op, std::move(l), claims::MakeLiteral(v));
}

ExprPtr And(ExprPtr l, ExprPtr r) {
  return claims::MakeLogic(claims::LogicOp::kAnd, std::move(l), std::move(r));
}

claims::Result<ProbeData> LoadProbeData(Env* env) {
  claims::Catalog* catalog = env->db->catalog();
  ProbeData d;
  using claims::CompareOp;
  if (env->spec->tpch) {
    CLAIMS_ASSIGN_OR_RETURN(claims::TablePtr lineitem,
                            catalog->GetTable("lineitem"));
    CLAIMS_ASSIGN_OR_RETURN(claims::TablePtr orders,
                            catalog->GetTable("orders"));
    const claims::Table& l = *lineitem;
    d.big = lineitem.get();
    d.build = orders.get();
    d.build_keys = {0};  // o_orderkey
    d.probe_keys = {0};  // l_orderkey
    // TPC-H Q6's predicate.
    d.filter = And(
        And(Cmp(CompareOp::kGe, Col(l, 10),
                Value::Date(claims::DaysFromCivil(1994, 1, 1))),
            Cmp(CompareOp::kLt, Col(l, 10),
                Value::Date(claims::DaysFromCivil(1995, 1, 1)))),
        And(And(Cmp(CompareOp::kGe, Col(l, 6), Value::Float64(0.05)),
                Cmp(CompareOp::kLe, Col(l, 6), Value::Float64(0.07))),
            Cmp(CompareOp::kLt, Col(l, 4), Value::Float64(24))));
    d.project_cols = {0, 4, 5, 6, 10};
    // TPC-H Q1's shape.
    d.group_exprs = {Col(l, 8), Col(l, 9)};
    d.group_names = {"l_returnflag", "l_linestatus"};
    ExprPtr disc_price = claims::MakeArith(
        claims::ArithOp::kMul, Col(l, 5),
        claims::MakeArith(claims::ArithOp::kSub,
                          claims::MakeLiteral(Value::Float64(1)), Col(l, 6)));
    d.aggregates = {{claims::AggFn::kSum, Col(l, 4), "sum_qty"},
                    {claims::AggFn::kSum, disc_price, "sum_disc_price"},
                    {claims::AggFn::kAvg, Col(l, 6), "avg_disc"},
                    {claims::AggFn::kCount, nullptr, "count_order"}};
  } else {
    CLAIMS_ASSIGN_OR_RETURN(claims::TablePtr trades,
                            catalog->GetTable("trades"));
    CLAIMS_ASSIGN_OR_RETURN(claims::TablePtr securities,
                            catalog->GetTable("securities"));
    const claims::Table& t = *trades;
    d.big = trades.get();
    d.build = securities.get();
    d.build_keys = {1, 2};  // acct_id, sec_code
    d.probe_keys = {0, 1};  // acct_id, sec_code
    // SSE-Q8's predicate.
    d.filter = Cmp(CompareOp::kEq, Col(t, 2),
                   Value::Date(claims::DaysFromCivil(2010, 10, 10)));
    d.project_cols = {0, 1, 5};
    // SSE-Q7's shape.
    d.group_exprs = {Col(t, 0)};
    d.group_names = {"acct_id"};
    d.aggregates = {{claims::AggFn::kSum, Col(t, 5), "sum_volume"}};
  }
  return d;
}

std::vector<BlockPtr> Materialize(const claims::Table& table) {
  std::vector<BlockPtr> blocks;
  for (int p = 0; p < table.num_partitions(); ++p) {
    claims::ScanIterator scan(&table.partition(p), &table.schema());
    claims::WorkerContext ctx;
    scan.Open(&ctx);
    BlockPtr b;
    while (scan.Next(&ctx, &b) == NextResult::kSuccess) blocks.push_back(b);
    scan.Close();
  }
  return blocks;
}

/// Drains `it` on the calling thread; returns rows produced.
int64_t Drain(claims::Iterator* it) {
  claims::WorkerContext ctx;
  int64_t rows = 0;
  if (it->Open(&ctx) != NextResult::kSuccess) return -1;
  BlockPtr b;
  while (it->Next(&ctx, &b) == NextResult::kSuccess) rows += b->num_rows();
  it->Close();
  return rows;
}

class Prober {
 public:
  Prober(Env* env, uint64_t seed, SpanRecorder* spans,
         std::vector<Metric>* metrics, std::vector<ProbeWork>* work)
      : env_(env), seed_(seed), spans_(spans), metrics_(metrics),
        work_(work) {}

  claims::Status Run() {
    CLAIMS_ASSIGN_OR_RETURN(data_, LoadProbeData(env_));
    Sql();
    Cluster();
    Core();
    Exec();
    HashTables();
    Net();
    Mem();
    return claims::Status::OK();
  }

 private:
  void Emit(const std::string& name, double value, const std::string& unit) {
    metrics_->push_back({name, value, unit});
  }

  /// Records the probe's span and work; busy time defaults to its span.
  void Done(const std::string& probe, int64_t start_ns, int64_t count,
            const std::string& what, int64_t busy_ns = -1) {
    const int64_t end = NowNs();
    if (busy_ns < 0) busy_ns = end - start_ns;
    Span s;
    s.name = probe;
    s.start_ns = start_ns;
    s.end_ns = end;
    s.tid = 100;
    s.args = {{"count", std::to_string(count)},
              {"unit", what},
              {"busy_ms", std::to_string(busy_ns / 1e6)}};
    spans_->Add(s);
    work_->push_back({probe, count, what, busy_ns});
  }

  void Sql() {
    const int64_t start = NowNs();
    std::vector<double> ms;
    int64_t busy = 0;
    for (int round = 0; round < 5; ++round) {
      for (const QueryDef& q : env_->spec->mix) {
        const int64_t t0 = NowNs();
        auto plan = env_->db->Plan(q.sql);
        const int64_t t1 = NowNs();
        if (!plan.ok()) continue;
        ms.push_back((t1 - t0) / 1e6);
        busy += t1 - t0;
      }
    }
    Emit("sql.plan_ms", Median(ms), "ms");
    Done("sql.plan", start, static_cast<int64_t>(ms.size()), "plans", busy);
  }

  void Cluster() {
    // The shape of a short query on an idle cluster: schedulers started,
    // 5 ms of work, then stopped.
    claims::Cluster* cluster = env_->db->cluster();
    const int64_t start = NowNs();
    std::vector<double> ms;
    int64_t busy = 0;
    for (int i = 0; i < 8; ++i) {
      cluster->StartSchedulers();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const int64_t t0 = NowNs();
      cluster->StopSchedulers();
      const int64_t t1 = NowNs();
      ms.push_back((t1 - t0) / 1e6);
      busy += t1 - t0;
    }
    Emit("cluster.sched_stop_ms", Median(ms), "ms");
    Done("cluster.sched_stop", start, static_cast<int64_t>(ms.size()), "stops",
         busy);
  }

  void Core() {
    // Expand/shrink on a live scan→filter pipeline over the largest table.
    // The scanned blocks are replayed until the stream is long enough to
    // outlive the cycles even on the smallest data set; a pipeline that
    // drains anyway is replaced by a fresh one.
    const int64_t start = NowNs();
    std::vector<double> expand_us;
    std::vector<double> shrink_us;
    const claims::Table& big = *data_.big;
    const std::vector<BlockPtr> scanned = Materialize(big);
    std::vector<BlockPtr> replay;
    while (!scanned.empty() && replay.size() < 4096) {
      replay.insert(replay.end(), scanned.begin(), scanned.end());
    }
    int64_t busy = 0;
    for (int pipeline = 0; expand_us.size() < 40 && pipeline < 400;
         ++pipeline) {
      auto filter = std::make_unique<claims::FilterIterator>(
          std::make_unique<BlocksIterator>(&replay), &big.schema(),
          data_.filter);
      claims::ElasticIterator::Options opts;
      opts.initial_parallelism = 1;
      claims::ElasticIterator it(std::move(filter), opts);
      claims::WorkerContext ctx;
      it.Open(&ctx);
      std::thread consumer([&] {
        claims::WorkerContext cctx;
        BlockPtr b;
        while (it.Next(&cctx, &b) == NextResult::kSuccess) {
        }
      });
      for (int t = 0; t < 8 && !it.finished(); ++t) {
        const int64_t e = it.ExpandMeasured(1 + t % 3);
        if (e < 0) break;
        const int64_t s = it.ShrinkBlocking();
        if (s < 0) break;
        expand_us.push_back(e / 1e3);
        shrink_us.push_back(s / 1e3);
        busy += e + s;
      }
      it.Close();
      consumer.join();
    }
    Emit("core.expand_us", Median(expand_us), "us");
    Emit("core.shrink_us", Median(shrink_us), "us");
    Done("core.expand_shrink", start, static_cast<int64_t>(expand_us.size()),
         "cycles", busy);

    // DataBuffer Insert+Pop of the table's own blocks, one thread.
    const int64_t bstart = NowNs();
    const std::vector<BlockPtr>& blocks = big.partition(0).blocks();
    claims::DataBuffer::Options bopts;
    bopts.capacity_blocks = 1024;
    claims::DataBuffer buffer(bopts);
    buffer.AddProducer(0);
    const int64_t ops = 200'000;
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < ops; ++i) {
      buffer.Insert(0, blocks[static_cast<size_t>(i) % blocks.size()]);
      BlockPtr out;
      buffer.Pop(&out);
    }
    const int64_t t1 = NowNs();
    buffer.RemoveProducer(0);
    Emit("core.buffer_ns", static_cast<double>(t1 - t0) / ops, "ns");
    Done("core.buffer", bstart, ops, "blocks", t1 - t0);
  }

  /// Repeats `run` (which returns rows processed) until `min_ns` of busy
  /// time; returns million rows per second.
  template <typename Fn>
  double RowsPerSecond(const std::string& probe, Fn run,
                       int64_t min_ns = 200'000'000) {
    const int64_t start = NowNs();
    int64_t rows = 0;
    int64_t busy = 0;
    while (busy < min_ns) {
      const int64_t t0 = NowNs();
      const int64_t r = run();
      busy += NowNs() - t0;
      if (r < 0) break;
      rows += r;
    }
    Done(probe, start, rows, "rows", busy);
    return busy == 0 ? 0 : rows / (busy / 1e9) / 1e6;
  }

  void Exec() {
    const claims::Table& big = *data_.big;
    const claims::Schema* schema = &big.schema();

    Emit("exec.scan_filter_mrows_s",
         RowsPerSecond("exec.scan_filter",
                       [&] {
                         for (int p = 0; p < big.num_partitions(); ++p) {
                           claims::ScanIterator::Options so;
                           so.predicate = data_.filter;
                           claims::ScanIterator scan(&big.partition(p), schema,
                                                     so);
                           if (Drain(&scan) < 0) return int64_t{-1};
                         }
                         return big.num_rows();
                       }),
         "Mrows/s");

    std::vector<claims::ColumnDef> out_cols;
    std::vector<ExprPtr> out_exprs;
    for (int c : data_.project_cols) {
      out_cols.push_back(schema->column(c));
      out_exprs.push_back(Col(big, c));
    }
    const claims::Schema out_schema(out_cols);
    Emit("exec.project_mrows_s",
         RowsPerSecond("exec.project",
                       [&] {
                         for (int p = 0; p < big.num_partitions(); ++p) {
                           claims::ProjectIterator project(
                               std::make_unique<claims::ScanIterator>(
                                   &big.partition(p), schema),
                               schema, out_schema, out_exprs);
                           if (Drain(&project) < 0) return int64_t{-1};
                         }
                         return big.num_rows();
                       }),
         "Mrows/s");

    const std::vector<BlockPtr> big_blocks = Materialize(big);
    Emit("exec.agg_mrows_s",
         RowsPerSecond("exec.agg",
                       [&] {
                         claims::HashAggIterator::Spec spec;
                         spec.input_schema = schema;
                         spec.group_exprs = data_.group_exprs;
                         spec.group_names = data_.group_names;
                         spec.aggregates = data_.aggregates;
                         spec.mode = claims::HashAggIterator::Mode::kHybrid;
                         spec.pool = claims::BlockPool::Global();
                         claims::HashAggIterator agg(
                             std::make_unique<BlocksIterator>(&big_blocks),
                             spec);
                         return Drain(&agg) < 0 ? int64_t{-1} : big.num_rows();
                       }),
         "Mrows/s");

    // Join: build and probe timed apart (Open drains the build side).
    const std::vector<BlockPtr> build_blocks = Materialize(*data_.build);
    const int64_t start = NowNs();
    int64_t build_ns = 0;
    int64_t probe_ns = 0;
    int64_t build_rows = 0;
    int64_t probe_rows = 0;
    while (build_ns + probe_ns < 300'000'000) {
      claims::HashJoinIterator::Spec spec;
      spec.build_schema = &data_.build->schema();
      spec.probe_schema = schema;
      spec.build_keys = data_.build_keys;
      spec.probe_keys = data_.probe_keys;
      spec.pool = claims::BlockPool::Global();
      claims::HashJoinIterator join(
          std::make_unique<BlocksIterator>(&build_blocks),
          std::make_unique<BlocksIterator>(&big_blocks), spec);
      claims::WorkerContext ctx;
      const int64_t t0 = NowNs();
      if (join.Open(&ctx) != NextResult::kSuccess) break;
      const int64_t t1 = NowNs();
      BlockPtr b;
      while (join.Next(&ctx, &b) == NextResult::kSuccess) {
      }
      const int64_t t2 = NowNs();
      join.Close();
      build_ns += t1 - t0;
      probe_ns += t2 - t1;
      build_rows += data_.build->num_rows();
      probe_rows += big.num_rows();
    }
    Emit("exec.join_build_mrows_s",
         build_ns == 0 ? 0 : build_rows / (build_ns / 1e9) / 1e6, "Mrows/s");
    Emit("exec.join_probe_mrows_s",
         probe_ns == 0 ? 0 : probe_rows / (probe_ns / 1e9) / 1e6, "Mrows/s");
    Done("exec.join_build", start, build_rows, "rows", build_ns);
    Done("exec.join_probe", start, probe_rows, "rows", probe_ns);
  }

  void HashTables() {
    constexpr int kKeys = 1 << 16;
    constexpr int kReps = 8;
    std::vector<int32_t> keys(kKeys);
    std::iota(keys.begin(), keys.end(), 0);
    uint64_t rng = DeriveSeed(seed_, 7);
    for (int i = kKeys - 1; i > 0; --i) {
      rng = DeriveSeed(rng, 3);
      std::swap(keys[i], keys[rng % static_cast<uint64_t>(i + 1)]);
    }
    const claims::Schema kv({claims::ColumnDef::Int32("k"),
                             claims::ColumnDef::Int64("v")});
    std::vector<char> rows(static_cast<size_t>(kKeys) * kv.row_size());
    for (int i = 0; i < kKeys; ++i) {
      kv.SetInt32(&rows[static_cast<size_t>(i) * kv.row_size()], 0, keys[i]);
      kv.SetInt64(&rows[static_cast<size_t>(i) * kv.row_size()], 1, i);
    }
    auto row = [&](int i) {
      return &rows[static_cast<size_t>(i) * kv.row_size()];
    };

    const int64_t start = NowNs();
    std::vector<double> insert_ns;
    std::vector<double> probe_ns;
    int64_t matches = 0;
    int64_t busy = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      claims::JoinHashTable table(&kv, {0}, 1 << 16);
      const int64_t t0 = NowNs();
      for (int i = 0; i < kKeys; ++i) table.Insert(row(i));
      const int64_t t1 = NowNs();
      for (int i = kKeys - 1; i >= 0; --i) {
        table.ForEachMatch(kv, row(i), {0}, [&](const char*) { ++matches; });
      }
      const int64_t t2 = NowNs();
      insert_ns.push_back(static_cast<double>(t1 - t0) / kKeys);
      probe_ns.push_back(static_cast<double>(t2 - t1) / kKeys);
      busy += t2 - t0;
    }
    Emit("exec.join_ht_insert_ns", Median(insert_ns), "ns");
    Emit("exec.join_ht_probe_ns", Median(probe_ns), "ns");
    // Every probe key was inserted once, so matches == inserts.
    Done("exec.join_ht", start, int64_t{kKeys} * kReps + matches,
         "inserts+matches", busy);

    const int64_t astart = NowNs();
    const claims::Schema group({claims::ColumnDef::Int32("g")});
    const std::vector<claims::AggFn> fns = {claims::AggFn::kSum,
                                            claims::AggFn::kCount};
    const double values[2] = {1.0, 0};
    const int64_t weights[2] = {1, 1};
    std::vector<double> update_ns;
    busy = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      claims::AggHashTable table(group, 2, 1 << 14);
      const int64_t t0 = NowNs();
      for (int pass = 0; pass < 4; ++pass) {
        for (int i = 0; i < kKeys; ++i) {
          table.Update(row(i), fns, values, weights);  // k is column 0 of kv
        }
      }
      const int64_t t1 = NowNs();
      update_ns.push_back(static_cast<double>(t1 - t0) / (4.0 * kKeys));
      busy += t1 - t0;
    }
    Emit("exec.agg_ht_update_ns", Median(update_ns), "ns");
    Done("exec.agg_ht", astart, 4LL * kKeys * kReps, "updates", busy);
  }

  void Net() {
    BlockPtr block = std::make_shared<claims::Block>(
        *data_.big->partition(0).block(0));
    {
      // One 64 KiB block across nodes on an unthrottled fabric.
      claims::Network net(2, claims::NetworkOptions{});
      net.CreateExchange(1, 1, {1});
      claims::BlockChannel* channel = net.GetChannel(1, 1);
      const int64_t start = NowNs();
      std::vector<double> us;
      int64_t busy = 0;
      for (int i = 0; i < 4000; ++i) {
        const int64_t t0 = NowNs();
        net.Send(1, 0, 1, block);
        claims::NetBlock nb;
        channel->Receive(&nb, 1'000'000'000);
        const int64_t t1 = NowNs();
        us.push_back((t1 - t0) / 1e3);
        busy += t1 - t0;
      }
      net.CloseProducer(1);
      Emit("net.block_rtt_us", Median(us), "us");
      Done("net.block_rtt", start, static_cast<int64_t>(us.size()), "blocks",
           busy);
    }
    {
      // A cross-node stream at the workload's NIC rate (0 = unthrottled).
      claims::NetworkOptions opts;
      opts.bandwidth_bytes_per_sec = env_->spec->nic_bytes_per_sec;
      claims::Network net(2, opts);
      net.CreateExchange(1, 1, {1});
      claims::BlockChannel* channel = net.GetChannel(1, 1);
      const int blocks =
          opts.bandwidth_bytes_per_sec > 0
              ? static_cast<int>(opts.bandwidth_bytes_per_sec * 0.6 /
                                 block->payload_bytes()) + 1
              : 4000;
      const int64_t start = NowNs();
      std::thread producer([&] {
        for (int i = 0; i < blocks; ++i) net.Send(1, 0, 1, block);
        net.CloseProducer(1);
      });
      int64_t bytes = 0;
      claims::NetBlock nb;
      while (channel->Receive(&nb, 1'000'000'000) !=
             claims::ChannelStatus::kClosed) {
        if (nb.block != nullptr) bytes += nb.block->payload_bytes();
        nb.block.reset();
      }
      producer.join();
      const int64_t busy = NowNs() - start;
      Emit("net.throttled_mb_s", bytes / (busy / 1e9) / 1e6, "MB/s");
      Done("net.throttled_stream", start, bytes, "bytes", busy);
    }
  }

  void Mem() {
    claims::BlockPool* pool = claims::BlockPool::Global();
    const int64_t ops = 1'000'000;
    const int64_t start = NowNs();
    for (int64_t i = 0; i < ops; ++i) {
      pool->Release(pool->Allocate(claims::kDefaultBlockBytes));
    }
    const int64_t busy = NowNs() - start;
    Emit("mem.block_alloc_ns", static_cast<double>(busy) / ops, "ns");
    Done("mem.block_alloc", start, ops, "allocations", busy);
  }

  Env* env_;
  uint64_t seed_;
  SpanRecorder* spans_;
  std::vector<Metric>* metrics_;
  std::vector<ProbeWork>* work_;
  ProbeData data_;
};

}  // namespace

claims::Status RunLayerProbes(Env* env, uint64_t seed, SpanRecorder* spans,
                              std::vector<Metric>* metrics,
                              std::vector<ProbeWork>* work) {
  return Prober(env, seed, spans, metrics, work).Run();
}

}  // namespace perfbench
