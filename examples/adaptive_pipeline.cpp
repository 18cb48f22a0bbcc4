// Core-API tour of the elastic iterator model (paper §3): build an operator
// pipeline by hand, run it under an ElasticIterator, and drive Expand/Shrink
// directly while it executes — the primitive the dynamic scheduler uses.

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "core/elastic_iterator.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/scan.h"
#include "obs/recorder.h"
#include "storage/table.h"

using namespace claims;

int main() {
  // CLAIMS_TRACE=pipeline.json ./adaptive_pipeline captures a Perfetto trace.
  TraceEnvScope trace_scope;
  // A single-partition table with a text column so the LIKE filter has work.
  Schema schema({ColumnDef::Int32("k"), ColumnDef::Char("comment", 44)});
  Table table("events", schema, 1, {});
  const char* words[] = {"alpha", "bravo", "charlie", "delta", "echo"};
  Rng rng(2016);
  for (int i = 0; i < 1'500'000; ++i) {
    char* row = table.AppendRowSlotRoundRobin();
    schema.SetInt32(row, 0, i % 500);
    schema.SetString(row, 1, StrFormat("%s %s %s", words[rng.Uniform(5)],
                                       words[rng.Uniform(5)],
                                       words[rng.Uniform(5)]));
  }

  // scan -> LIKE filter -> hash aggregation (count per key).
  auto scan = std::make_unique<ScanIterator>(&table.partition(0), &schema);
  auto filter = std::make_unique<FilterIterator>(
      std::move(scan), &schema,
      MakeLike(MakeColumnRef(1, DataType::kChar, "comment"), "%alpha%echo%",
               /*negated=*/true));
  HashAggIterator::Spec agg_spec;
  agg_spec.input_schema = &schema;
  agg_spec.group_exprs = {MakeColumnRef(0, DataType::kInt32, "k")};
  agg_spec.group_names = {"k"};
  agg_spec.aggregates = {{AggFn::kCount, nullptr, "cnt"}};
  agg_spec.mode = HashAggIterator::Mode::kIndependent;
  auto agg = std::make_unique<HashAggIterator>(std::move(filter), agg_spec);
  Schema out_schema = agg->output_schema();

  SegmentStats stats;
  ElasticIterator::Options opts;
  opts.initial_parallelism = 1;
  opts.stats = &stats;
  stats.owner.segment = "pipeline";  // names this pipeline's records
  ElasticIterator elastic(std::move(agg), opts);

  WorkerContext ctx;
  elastic.Open(&ctx);
  std::printf("pipeline started with parallelism %d\n",
              elastic.parallelism());

  // Drain on a consumer thread (the role a sender plays in a segment).
  int64_t groups = 0;
  std::thread consumer([&] {
    BlockPtr block;
    while (elastic.Next(&ctx, &block) == NextResult::kSuccess) {
      groups += block->num_rows();
    }
  });

  // The scheduler's moves, by hand: grow while the build is hot, then shrink.
  for (int core = 1; core <= 3; ++core) {
    int64_t delay = elastic.ExpandMeasured(core);
    std::printf("expand -> parallelism %d (worker processing after %.2f ms)\n",
                elastic.parallelism(), delay / 1e6);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::printf("tuples consumed so far: %lld\n",
              static_cast<long long>(stats.input_tuples.load()));
  for (int i = 0; i < 2; ++i) {
    int64_t delay = elastic.ShrinkBlocking();
    if (delay >= 0) {
      std::printf("shrink -> parallelism %d (terminated in %.2f ms, "
                  "no tuple lost)\n",
                  elastic.parallelism(), delay / 1e6);
    }
  }

  consumer.join();
  elastic.Close();
  std::printf("done: %lld groups, %lld input tuples, selectivity %.3f\n",
              static_cast<long long>(groups),
              static_cast<long long>(stats.input_tuples.load()),
              stats.selectivity());
  return 0;
}
