#include "sql/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "exec/expr/batch_expr.h"
#include "sql/parser.h"
#include "storage/partition.h"

namespace claims {

namespace {

/// Rows per relation in the selectivity sample: one from each of this many
/// equal slices of the table.
constexpr int64_t kSampleRows = 4000;

/// Seed of the sample's positions, fixed so that planning is deterministic.
constexpr uint64_t kSampleSeed = 0x5A3F1E0D2C4B6A79ULL;

/// Clones a bound expression, substituting (a) subtrees structurally equal to
/// a GROUP BY expression with a synthetic column reference, and (b) aggregate
/// slots with caller-provided replacement expressions. Used to rebase
/// post-aggregation expressions (SELECT / HAVING) onto the aggregate output
/// stream.
BExprPtr RewriteAggRefs(
    const BExprPtr& e,
    const std::vector<std::pair<std::string, BExprPtr>>& group_subs,
    const std::vector<BExprPtr>& slot_exprs) {
  if (e->kind == BExpr::Kind::kAggSlot) {
    return slot_exprs[static_cast<size_t>(e->column)];
  }
  std::string text = e->ToString();
  for (const auto& [group_text, replacement] : group_subs) {
    if (group_text == text) return replacement;
  }
  auto copy = std::make_shared<BExpr>(*e);
  for (BExprPtr& c : copy->children) {
    c = RewriteAggRefs(c, group_subs, slot_exprs);
  }
  return copy;
}

/// AND-folds lowered conjuncts.
ExprPtr AndFold(std::vector<ExprPtr> exprs) {
  ExprPtr out;
  for (ExprPtr& e : exprs) {
    out = out == nullptr ? std::move(e)
                         : MakeLogic(LogicOp::kAnd, std::move(out), std::move(e));
  }
  return out;
}

}  // namespace

class Planner::Impl {
 public:
  Impl(Catalog* catalog, const PlannerOptions& options, const BoundQuery& query)
      : catalog_(catalog),
        options_(options),
        query_(query),
        select_exprs_(query.select_exprs),
        having_(query.having) {}

  Result<PhysicalPlan> Run() {
    CLAIMS_RETURN_IF_ERROR(Prepare());
    CLAIMS_ASSIGN_OR_RETURN(Pipeline pipeline, BuildJoinPipeline());

    if (query_.has_aggregation()) {
      CLAIMS_ASSIGN_OR_RETURN(pipeline, PlanAggregation(std::move(pipeline)));
    }
    CLAIMS_RETURN_IF_ERROR(AddFinalProjection(&pipeline));
    CLAIMS_RETURN_IF_ERROR(Finish(std::move(pipeline)));
    plan_.limit = query_.limit;
    return std::move(plan_);
  }

  /// Plans this query as a derived table: final output hash-partitioned on
  /// output column 0 across all nodes. Returns the exchange id.
  Result<int> RunAsSubquery(PhysicalPlan* parent_plan, int* exchange_counter) {
    plan_ = std::move(*parent_plan);
    next_exchange_ = *exchange_counter;
    CLAIMS_RETURN_IF_ERROR(Prepare());
    CLAIMS_ASSIGN_OR_RETURN(Pipeline pipeline, BuildJoinPipeline());
    if (query_.has_aggregation()) {
      CLAIMS_ASSIGN_OR_RETURN(pipeline, PlanAggregation(std::move(pipeline)));
    }
    CLAIMS_RETURN_IF_ERROR(AddFinalProjection(&pipeline));
    int exchange = ClosePipeline(std::move(pipeline), Partitioning::kHash,
                                 /*hash_stream_cols=*/{0}, AllNodes());
    *parent_plan = std::move(plan_);
    *exchange_counter = next_exchange_;
    return exchange;
  }

 private:
  struct Pipeline {
    std::unique_ptr<POp> root;
    std::vector<int> nodes;
    /// virtual (or synthetic) column id → stream column index.
    std::map<int, int> virt2stream;
    /// The columns the stream is hash-partitioned on, in hash order (empty:
    /// unknown). Entry k holds every virtual column known equal to the k-th
    /// hashed column: the one key hash hashes equal values alike.
    std::vector<std::set<int>> partition_virt;
  };

  struct JoinEdge {
    int left_virt;
    int right_virt;
    bool used = false;
  };

  /// One step of the join order: the relation it adds to the stream, and
  /// the estimated stream rows after it (the first step: the streamed
  /// relation's filtered rows). Unset when no decision computed one.
  struct JoinStep {
    int rel;
    std::optional<double> est_rows;
  };

  std::vector<int> AllNodes() const {
    std::vector<int> nodes;
    for (int i = 0; i < options_.num_nodes; ++i) nodes.push_back(i);
    return nodes;
  }

  // --- preparation -----------------------------------------------------------

  Status Prepare() {
    const int nrel = static_cast<int>(query_.relations.size());
    std::vector<std::vector<BExprPtr>> rel_filters(static_cast<size_t>(nrel));
    for (const BExprPtr& conjunct : query_.conjuncts) {
      std::vector<int> cols;
      CollectColumns(*conjunct, &cols);
      std::set<int> rels;
      for (int c : cols) rels.insert(query_.relation_of(c));
      if (rels.size() <= 1) {
        int rel = rels.empty() ? 0 : *rels.begin();
        rel_filters[static_cast<size_t>(rel)].push_back(conjunct);
        continue;
      }
      if (rels.size() == 2 && conjunct->kind == BExpr::Kind::kCompare &&
          conjunct->compare_op == CompareOp::kEq &&
          conjunct->children[0]->kind == BExpr::Kind::kColumn &&
          conjunct->children[1]->kind == BExpr::Kind::kColumn) {
        edges_.push_back(JoinEdge{conjunct->children[0]->column,
                                  conjunct->children[1]->column});
        continue;
      }
      residuals_.push_back(conjunct);
    }
    // Columns referenced anywhere (projection pushdown).
    auto collect = [&](const BExprPtr& e) {
      if (e != nullptr) CollectColumns(*e, &needed_cols_);
    };
    for (const BExprPtr& e : query_.conjuncts) collect(e);
    for (const BExprPtr& e : query_.group_by) collect(e);
    for (const BoundAggregate& a : query_.aggregates) collect(a.arg);
    for (const BExprPtr& e : select_exprs_) collect(e);
    collect(having_);

    // Lower each relation's filters once, onto its own schema (the scan's
    // or the derived table's merger's): the selectivity sample and
    // StartRelation's pushed-down filter share the result.
    rel_preds_.resize(static_cast<size_t>(nrel));
    for (int r = 0; r < nrel; ++r) {
      const BoundRelation& rel = query_.relations[static_cast<size_t>(r)];
      std::map<int, int> identity;
      for (int c = 0; c < rel.schema.num_columns(); ++c) {
        identity[rel.virtual_base + c] = c;
      }
      std::vector<ExprPtr> lowered;
      for (const BExprPtr& f : rel_filters[static_cast<size_t>(r)]) {
        CLAIMS_ASSIGN_OR_RETURN(ExprPtr e,
                                LowerBExpr(*f, identity, nullptr, rel.schema));
        lowered.push_back(std::move(e));
      }
      rel_preds_[static_cast<size_t>(r)] = AndFold(std::move(lowered));
    }
    eff_rows_.assign(static_cast<size_t>(nrel), std::nullopt);
    return Status::OK();
  }

  /// Estimated post-filter rows of relation `r`. A base table's filter is
  /// sampled on first read, so a plan that compares no relations (a
  /// single-relation query) samples nothing.
  int64_t EffRows(int r) {
    std::optional<int64_t>& memo = eff_rows_[static_cast<size_t>(r)];
    if (!memo.has_value()) {
      const BoundRelation& rel = query_.relations[static_cast<size_t>(r)];
      const ExprPtr& pred = rel_preds_[static_cast<size_t>(r)];
      const double selectivity =
          rel.table != nullptr && pred != nullptr
              ? SampleSelectivity(*rel.table, pred).fraction()
              : 1.0;
      memo = std::max<int64_t>(
          1, static_cast<int64_t>(
                 static_cast<double>(rel.estimated_rows) * selectivity));
    }
    return *memo;
  }

  /// Distinct values of virtual column `v`: an exact count over its base
  /// table, memoized by the catalog. A derived table's columns count as
  /// distinct up to its estimated rows.
  double Distinct(int v) const {
    const BoundRelation& rel =
        query_.relations[static_cast<size_t>(query_.relation_of(v))];
    return static_cast<double>(
        rel.table == nullptr
            ? rel.estimated_rows
            : catalog_->DistinctCount(*rel.table, v - rel.virtual_base));
  }

  /// True when `e` joins relation `r` to a relation marked in `set`; then
  /// `*own` is r's column and `*other` the set's.
  bool EdgeJoins(const JoinEdge& e, int r, const std::vector<bool>& set,
                 int* own, int* other) const {
    const int rl = query_.relation_of(e.left_virt);
    const int rr = query_.relation_of(e.right_virt);
    if (rl == r && set[static_cast<size_t>(rr)]) {
      *own = e.left_virt;
      *other = e.right_virt;
      return true;
    }
    if (rr == r && set[static_cast<size_t>(rl)]) {
      *own = e.right_virt;
      *other = e.left_virt;
      return true;
    }
    return false;
  }

  /// Estimated rows of joining relation `r` to a stream of `cur` rows over
  /// the relations marked in `stream`: cur × EffRows(r) / K. K is the
  /// largest, over the edges joining `r` to the stream, of
  /// max(min(V(r.col), EffRows(r)), min(V(stream.col), cur)), V a column's
  /// distinct count. Only the most selective edge counts: the product over
  /// edges would treat correlated keys such as (ps_partkey, ps_suppkey) as
  /// independent.
  double JoinOutput(double cur, int r, const std::vector<bool>& stream) {
    const double rows = static_cast<double>(EffRows(r));
    double k = 1;
    int own = -1;
    int other = -1;
    for (const JoinEdge& e : edges_) {
      if (!EdgeJoins(e, r, stream, &own, &other)) continue;
      k = std::max({k, std::min(Distinct(own), rows),
                    std::min(Distinct(other), cur)});
    }
    return cur * (rows / k);
  }

  // --- expression lowering -----------------------------------------------------

  Result<ExprPtr> Lower(const BExpr& e, const Pipeline& p) {
    return LowerBExpr(e, p.virt2stream, nullptr, p.root->output_schema);
  }

  Status ApplyFilters(Pipeline* p, const std::vector<BExprPtr>& filters) {
    if (filters.empty()) return Status::OK();
    std::vector<ExprPtr> lowered;
    for (const BExprPtr& f : filters) {
      CLAIMS_ASSIGN_OR_RETURN(ExprPtr e, Lower(*f, *p));
      lowered.push_back(std::move(e));
    }
    p->root = MakeFilterOp(std::move(p->root), AndFold(std::move(lowered)));
    return Status::OK();
  }

  Status ApplyCoveredResiduals(Pipeline* p) {
    std::vector<BExprPtr> ready;
    for (auto it = residuals_.begin(); it != residuals_.end();) {
      if (ColumnsCovered(**it, p->virt2stream)) {
        ready.push_back(*it);
        it = residuals_.erase(it);
      } else {
        ++it;
      }
    }
    return ApplyFilters(p, ready);
  }

  /// Projects the stream down to the virtual columns in `keep` (order:
  /// current stream order). No-op when nothing would be dropped.
  Status ProjectToNeeded(Pipeline* p, const std::set<int>& keep) {
    std::vector<std::pair<int, int>> kept;  // (stream idx, virt id)
    for (const auto& [virt, stream] : p->virt2stream) {
      if (keep.count(virt)) kept.emplace_back(stream, virt);
    }
    std::sort(kept.begin(), kept.end());
    if (static_cast<int>(kept.size()) == p->root->output_schema.num_columns()) {
      return Status::OK();
    }
    const Schema& schema = p->root->output_schema;
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    std::map<int, int> new_map;
    for (size_t i = 0; i < kept.size(); ++i) {
      const auto& [stream, virt] = kept[i];
      exprs.push_back(MakeColumnRef(stream, schema.column(stream).type,
                                    schema.column(stream).name));
      names.push_back(schema.column(stream).name);
      new_map[virt] = static_cast<int>(i);
    }
    p->root = MakeProjectOp(std::move(p->root), std::move(exprs),
                            std::move(names));
    p->virt2stream = std::move(new_map);
    return Status::OK();
  }

  // --- fragments ----------------------------------------------------------------

  int ClosePipeline(Pipeline p, Partitioning partitioning,
                    std::vector<int> hash_stream_cols,
                    std::vector<int> consumers, bool order_preserving = false) {
    auto fragment = std::make_unique<Fragment>();
    fragment->id = static_cast<int>(plan_.fragments.size());
    fragment->root = std::move(p.root);
    fragment->nodes = std::move(p.nodes);
    fragment->out_exchange_id = next_exchange_++;
    fragment->partitioning = partitioning;
    fragment->hash_cols = std::move(hash_stream_cols);
    fragment->consumer_nodes = std::move(consumers);
    fragment->order_preserving = order_preserving;
    int id = fragment->out_exchange_id;
    plan_.fragments.push_back(std::move(fragment));
    return id;
  }

  // --- relation access -----------------------------------------------------------

  Result<Pipeline> StartRelation(int rel_index) {
    const BoundRelation& rel =
        query_.relations[static_cast<size_t>(rel_index)];
    Pipeline p;
    if (rel.table != nullptr) {
      p.root = MakeScanOp(*rel.table);
      for (int n = 0; n < rel.table->num_partitions(); ++n) {
        p.nodes.push_back(n);
      }
    } else {
      // Derived table: plan the subquery; its sender hash-partitions on
      // output column 0 across all nodes.
      Impl sub(catalog_, options_, *rel.subquery);
      CLAIMS_ASSIGN_OR_RETURN(int exchange,
                              sub.RunAsSubquery(&plan_, &next_exchange_));
      p.root = MakeMergerOp(exchange, rel.schema);
      p.nodes = AllNodes();
    }
    for (int c = 0; c < rel.schema.num_columns(); ++c) {
      p.virt2stream[rel.virtual_base + c] = c;
    }
    for (int c : rel.partition_cols) {
      p.partition_virt.push_back({rel.virtual_base + c});
    }
    if (const ExprPtr& pred = rel_preds_[static_cast<size_t>(rel_index)]) {
      p.root = MakeFilterOp(std::move(p.root), pred);
    }
    if (const auto& rows = eff_rows_[static_cast<size_t>(rel_index)]) {
      p.root->est_rows = *rows;
    }
    CLAIMS_RETURN_IF_ERROR(ApplyCoveredResiduals(&p));
    return p;
  }

  // --- join pipeline ---------------------------------------------------------------

  /// Greedy left-deep join order. The largest filtered relation streams;
  /// each next relation is the connected one with the smallest estimated
  /// join output (JoinOutput), ties to the smaller relation. A decision with
  /// one candidate estimates nothing, so a query whose decisions never
  /// compare two relations reads no distinct count; the running estimate
  /// catches up over such steps at the next decision that does.
  Result<std::vector<JoinStep>> JoinOrder() {
    const int nrel = static_cast<int>(query_.relations.size());
    if (nrel == 1) return std::vector<JoinStep>{{0, std::nullopt}};
    int start = 0;
    for (int r = 1; r < nrel; ++r) {
      if (EffRows(r) > EffRows(start)) start = r;
    }
    std::vector<JoinStep> order{{start, static_cast<double>(EffRows(start))}};
    std::vector<bool> joined(static_cast<size_t>(nrel), false);
    joined[static_cast<size_t>(start)] = true;
    int own = -1;
    int other = -1;
    while (static_cast<int>(order.size()) < nrel) {
      std::vector<int> candidates;
      for (int r = 0; r < nrel; ++r) {
        if (!joined[static_cast<size_t>(r)] &&
            std::any_of(edges_.begin(), edges_.end(), [&](const JoinEdge& e) {
              return EdgeJoins(e, r, joined, &own, &other);
            })) {
          candidates.push_back(r);
        }
      }
      if (candidates.empty()) {
        return Status::PlanError(
            "query requires a cross join (no join predicate connects all "
            "relations)");
      }
      JoinStep next{candidates[0], std::nullopt};
      if (candidates.size() > 1) {
        std::vector<bool> stream(static_cast<size_t>(nrel), false);
        for (size_t i = 0; i < order.size(); ++i) {
          if (!order[i].est_rows.has_value()) {
            order[i].est_rows =
                JoinOutput(*order[i - 1].est_rows, order[i].rel, stream);
          }
          stream[static_cast<size_t>(order[i].rel)] = true;
        }
        for (int r : candidates) {
          const double est = JoinOutput(*order.back().est_rows, r, joined);
          if (!next.est_rows.has_value() || est < *next.est_rows ||
              (est == *next.est_rows && EffRows(r) < EffRows(next.rel))) {
            next = JoinStep{r, est};
          }
        }
      }
      order.push_back(next);
      joined[static_cast<size_t>(next.rel)] = true;
    }
    return order;
  }

  Result<Pipeline> BuildJoinPipeline() {
    CLAIMS_ASSIGN_OR_RETURN(const std::vector<JoinStep> order, JoinOrder());
    CLAIMS_ASSIGN_OR_RETURN(Pipeline pipeline, StartRelation(order[0].rel));
    std::vector<bool> joined(query_.relations.size(), false);
    joined[static_cast<size_t>(order[0].rel)] = true;
    for (size_t i = 1; i < order.size(); ++i) {
      CLAIMS_RETURN_IF_ERROR(JoinRelation(&pipeline, order[i], joined));
      joined[static_cast<size_t>(order[i].rel)] = true;
    }
    CLAIMS_RETURN_IF_ERROR(ApplyCoveredResiduals(&pipeline));
    if (!residuals_.empty()) {
      return Status::PlanError("unresolvable residual predicate");
    }
    return pipeline;
  }

  Status JoinRelation(Pipeline* pipeline, const JoinStep& step,
                      const std::vector<bool>& joined) {
    const int rel_index = step.rel;
    const BoundRelation& rel =
        query_.relations[static_cast<size_t>(rel_index)];
    // Join keys: all unused edges between `rel` and the joined set.
    std::vector<int> stream_key_virt;  // probe-side (current pipeline)
    std::vector<int> build_key_virt;   // build-side (new relation)
    int own = -1;
    int other = -1;
    for (JoinEdge& e : edges_) {
      if (e.used || !EdgeJoins(e, rel_index, joined, &own, &other)) continue;
      build_key_virt.push_back(own);
      stream_key_virt.push_back(other);
      e.used = true;
    }
    if (build_key_virt.empty()) {
      return Status::PlanError("join step without keys");
    }

    CLAIMS_ASSIGN_OR_RETURN(Pipeline build, StartRelation(rel_index));
    // Ship only the columns the rest of the query needs (plus join keys).
    std::set<int> build_keep(needed_cols_.begin(), needed_cols_.end());
    for (int v : build_key_virt) build_keep.insert(v);
    CLAIMS_RETURN_IF_ERROR(ProjectToNeeded(&build, build_keep));

    auto stream_cols_of = [](const Pipeline& p, const std::vector<int>& virt) {
      std::vector<int> cols;
      for (int v : virt) cols.push_back(p.virt2stream.at(v));
      return cols;
    };

    const bool small_build =
        EffRows(rel_index) <= options_.broadcast_threshold_rows;
    // The build keys paired with the stream's partition columns, in hash
    // order; empty unless every partition column is a probe key (a superset
    // of partition columns keeps co-location: equal keys share all columns).
    auto key_index = [&](int v) {
      return std::find(stream_key_virt.begin(), stream_key_virt.end(), v) -
             stream_key_virt.begin();
    };
    std::vector<int> aligned_build_virt;
    for (const std::set<int>& equal : pipeline->partition_virt) {
      if (std::any_of(equal.begin(), equal.end(), [&](int v) {
            return key_index(v) == std::ssize(stream_key_virt);
          })) {
        aligned_build_virt.clear();
        break;
      }
      aligned_build_virt.push_back(build_key_virt[key_index(*equal.begin())]);
    }
    const bool stream_partitioned_on_keys = !aligned_build_virt.empty();
    std::vector<int> build_partition_virt;
    for (int c : rel.partition_cols) {
      build_partition_virt.push_back(rel.virtual_base + c);
    }
    const bool build_colocated = stream_partitioned_on_keys &&
                                 rel.table != nullptr &&
                                 build.nodes == pipeline->nodes &&
                                 build_partition_virt == aligned_build_virt;

    std::unique_ptr<POp> build_source;
    std::map<int, int> build_map;  // virt → build-stream col
    if (build_colocated) {
      // Fully local join: both sides already live partitioned on the key.
      build_map = build.virt2stream;
      build_source = std::move(build.root);
    } else if (small_build) {
      // Broadcast the build side to wherever the stream runs.
      Schema build_schema = build.root->output_schema;
      build_map = build.virt2stream;
      int exchange = ClosePipeline(std::move(build), Partitioning::kBroadcast,
                                   {}, pipeline->nodes);
      build_source = MakeMergerOp(exchange, std::move(build_schema));
    } else if (stream_partitioned_on_keys) {
      // Repartition only the build side to match the stream's partitioning.
      Schema build_schema = build.root->output_schema;
      build_map = build.virt2stream;
      std::vector<int> hash_cols = stream_cols_of(build, aligned_build_virt);
      int exchange = ClosePipeline(std::move(build), Partitioning::kHash,
                                   std::move(hash_cols), pipeline->nodes);
      build_source = MakeMergerOp(exchange, std::move(build_schema));
    } else {
      // Repartition both sides onto all nodes (full shuffle join).
      std::set<int> stream_keep(needed_cols_.begin(), needed_cols_.end());
      for (int v : stream_key_virt) stream_keep.insert(v);
      CLAIMS_RETURN_IF_ERROR(ProjectToNeeded(pipeline, stream_keep));
      Schema stream_schema = pipeline->root->output_schema;
      std::map<int, int> stream_map = pipeline->virt2stream;
      std::vector<int> stream_hash = stream_cols_of(*pipeline, stream_key_virt);
      Pipeline closed = std::move(*pipeline);
      int stream_exchange =
          ClosePipeline(std::move(closed), Partitioning::kHash,
                        std::move(stream_hash), AllNodes());
      pipeline->root = MakeMergerOp(stream_exchange, std::move(stream_schema));
      pipeline->nodes = AllNodes();
      pipeline->virt2stream = std::move(stream_map);
      pipeline->partition_virt.clear();
      for (int v : stream_key_virt) pipeline->partition_virt.push_back({v});

      Schema build_schema = build.root->output_schema;
      build_map = build.virt2stream;
      std::vector<int> build_hash = stream_cols_of(build, build_key_virt);
      int exchange = ClosePipeline(std::move(build), Partitioning::kHash,
                                   std::move(build_hash), AllNodes());
      build_source = MakeMergerOp(exchange, std::move(build_schema));
    }

    // Assemble the join; output = [build | probe].
    std::vector<int> probe_keys = stream_cols_of(*pipeline, stream_key_virt);
    std::vector<int> build_keys;
    for (int v : build_key_virt) build_keys.push_back(build_map.at(v));
    int build_width = build_source->output_schema.num_columns();
    pipeline->root =
        MakeHashJoinOp(std::move(build_source), std::move(pipeline->root),
                       std::move(build_keys), std::move(probe_keys));
    pipeline->root->build_rows = EffRows(rel_index);
    if (step.est_rows.has_value()) {
      pipeline->root->est_rows = std::llround(*step.est_rows);
    }
    std::map<int, int> new_map;
    for (const auto& [v, c] : build_map) new_map[v] = c;
    for (const auto& [v, c] : pipeline->virt2stream) {
      new_map[v] = build_width + c;
    }
    pipeline->virt2stream = std::move(new_map);
    // Equal join keys propagate the partitioning property to the build side.
    for (std::set<int>& equal : pipeline->partition_virt) {
      for (size_t i = 0; i < stream_key_virt.size(); ++i) {
        if (equal.count(stream_key_virt[i])) equal.insert(build_key_virt[i]);
      }
    }
    return ApplyCoveredResiduals(pipeline);
  }

  // --- aggregation -------------------------------------------------------------

  /// Synthetic id of agg-output stream position j.
  int SynthId(int j) const { return query_.num_virtual_columns() + j; }

  /// True when every partition column of the stream is a plain GROUP BY
  /// column, so each group already lives on one node.
  bool PartitionedOnGroupKeys(const Pipeline& pipeline) const {
    if (pipeline.partition_virt.empty()) return false;
    for (const std::set<int>& equal : pipeline.partition_virt) {
      for (int v : equal) {
        if (std::none_of(query_.group_by.begin(), query_.group_by.end(),
                         [v](const BExprPtr& g) {
                           return g->kind == BExpr::Kind::kColumn &&
                                  g->column == v;
                         })) {
          return false;
        }
      }
    }
    return true;
  }

  /// A grouped stream already partitioned on its group keys aggregates in
  /// one local HashAgg. Every other aggregation runs in two phases: a
  /// partial HashAgg where the stream lives (AVG split into SUM and COUNT),
  /// an exchange (hash on the group columns; a gather to the master when
  /// there are none), and a final HashAgg merging the partial states (COUNT
  /// and SUM by SUM, MIN/MAX kept). Only partial rows cross the network.
  Result<Pipeline> PlanAggregation(Pipeline pipeline) {
    const int ngroup = static_cast<int>(query_.group_by.size());
    const bool local = ngroup > 0 && PartitionedOnGroupKeys(pipeline);
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::vector<int> hash_cols;
    for (int g = 0; g < ngroup; ++g) {
      CLAIMS_ASSIGN_OR_RETURN(ExprPtr e, Lower(*query_.group_by[g], pipeline));
      group_exprs.push_back(std::move(e));
      group_names.push_back(StrFormat("g%d", g));
      hash_cols.push_back(g);
    }
    // Aggregate a's value is output column ngroup + value_col[a]; a split
    // AVG's count is column ngroup + count_col[a] (-1: not split).
    std::vector<HashAggIterator::Aggregate> aggs;
    std::vector<AggFn> merge_fns;
    std::vector<int> value_col;
    std::vector<int> count_col;
    auto add = [&](AggFn fn, ExprPtr arg, std::string name) {
      merge_fns.push_back(fn == AggFn::kCount ? AggFn::kSum : fn);
      aggs.push_back({fn, std::move(arg), std::move(name)});
      return static_cast<int>(aggs.size()) - 1;
    };
    for (const BoundAggregate& agg : query_.aggregates) {
      ExprPtr arg;
      if (agg.arg != nullptr) {
        CLAIMS_ASSIGN_OR_RETURN(arg, Lower(*agg.arg, pipeline));
      }
      if (!local && agg.fn == AggFn::kAvg) {
        value_col.push_back(
            add(AggFn::kSum, std::move(arg), agg.name + "_sum"));
        count_col.push_back(add(AggFn::kCount, nullptr, agg.name + "_cnt"));
      } else {
        value_col.push_back(add(agg.fn, std::move(arg), agg.name));
        count_col.push_back(-1);
      }
    }
    pipeline.root =
        MakeHashAggOp(std::move(pipeline.root), std::move(group_exprs),
                      group_names, std::move(aggs),
                      HashAggIterator::Mode::kHybrid);

    if (!local) {
      const Schema partial = pipeline.root->output_schema;
      std::vector<int> nodes = ngroup > 0 ? AllNodes() : std::vector<int>{0};
      const int exchange = ClosePipeline(
          std::move(pipeline),
          ngroup > 0 ? Partitioning::kHash : Partitioning::kToOne,
          std::move(hash_cols), nodes);
      std::vector<ExprPtr> keys;
      std::vector<HashAggIterator::Aggregate> merges;
      for (int c = 0; c < partial.num_columns(); ++c) {
        const ColumnDef& col = partial.column(c);
        ExprPtr ref = MakeColumnRef(c, col.type, col.name);
        if (c < ngroup) {
          keys.push_back(std::move(ref));
        } else {
          merges.push_back({merge_fns[c - ngroup], std::move(ref), col.name});
        }
      }
      pipeline = Pipeline{};
      pipeline.root = MakeHashAggOp(
          MakeMergerOp(exchange, partial), std::move(keys),
          std::move(group_names), std::move(merges),
          ngroup > 0 ? HashAggIterator::Mode::kHybrid
                     : HashAggIterator::Mode::kShared);
      pipeline.root->agg_scalar_final = ngroup == 0;
      pipeline.nodes = std::move(nodes);
    }

    // Rebase post-aggregation expressions: group expr g ↦ output col g,
    // aggregate a ↦ its value column (a split AVG: value / count).
    const Schema& out = pipeline.root->output_schema;
    std::vector<std::pair<std::string, BExprPtr>> group_subs;
    std::map<int, int> new_map;
    for (int g = 0; g < ngroup; ++g) {
      const BExpr& ge = *query_.group_by[g];
      group_subs.emplace_back(ge.ToString(),
                              BColumn(SynthId(g), ge.type, ge.char_width));
      new_map[SynthId(g)] = g;
      if (ge.kind == BExpr::Kind::kColumn) new_map[ge.column] = g;
    }
    auto column = [&](int c) {
      new_map[SynthId(ngroup + c)] = ngroup + c;
      return BColumn(SynthId(ngroup + c), out.column(ngroup + c).type);
    };
    std::vector<BExprPtr> slot_exprs;
    for (size_t a = 0; a < value_col.size(); ++a) {
      BExprPtr value = column(value_col[a]);
      slot_exprs.push_back(count_col[a] < 0 ? std::move(value)
                                            : BArith(ArithOp::kDiv,
                                                     std::move(value),
                                                     column(count_col[a])));
    }
    pipeline.virt2stream = std::move(new_map);
    RewritePostAgg(group_subs, slot_exprs);
    pipeline.partition_virt.clear();
    return pipeline;
  }

  void RewritePostAgg(
      const std::vector<std::pair<std::string, BExprPtr>>& group_subs,
      const std::vector<BExprPtr>& slot_exprs) {
    for (BExprPtr& e : select_exprs_) {
      e = RewriteAggRefs(e, group_subs, slot_exprs);
    }
    if (having_ != nullptr) {
      having_ = RewriteAggRefs(having_, group_subs, slot_exprs);
    }
  }

  // --- finalization -----------------------------------------------------------

  Status AddFinalProjection(Pipeline* pipeline) {
    if (having_ != nullptr) {
      CLAIMS_ASSIGN_OR_RETURN(ExprPtr h, Lower(*having_, *pipeline));
      pipeline->root = MakeFilterOp(std::move(pipeline->root), std::move(h));
    }
    // Identity projection (SELECT * over the exact stream) is skipped.
    bool identity =
        static_cast<int>(select_exprs_.size()) ==
        pipeline->root->output_schema.num_columns();
    if (identity) {
      for (size_t i = 0; i < select_exprs_.size(); ++i) {
        const BExpr& e = *select_exprs_[i];
        if (e.kind != BExpr::Kind::kColumn ||
            pipeline->virt2stream.count(e.column) == 0 ||
            pipeline->virt2stream.at(e.column) != static_cast<int>(i) ||
            !EqualsIgnoreCase(
                pipeline->root->output_schema.column(static_cast<int>(i)).name,
                query_.select_names[i])) {
          identity = false;
          break;
        }
      }
    }
    if (identity) return Status::OK();
    std::vector<ExprPtr> exprs;
    for (const BExprPtr& e : select_exprs_) {
      CLAIMS_ASSIGN_OR_RETURN(ExprPtr lowered, Lower(*e, *pipeline));
      exprs.push_back(std::move(lowered));
    }
    pipeline->root = MakeProjectOp(std::move(pipeline->root), std::move(exprs),
                                   query_.select_names);
    // The projected stream no longer exposes virtual columns.
    pipeline->virt2stream.clear();
    return Status::OK();
  }

  Status Finish(Pipeline pipeline) {
    Schema output = pipeline.root->output_schema;
    if (!query_.order_by.empty()) {
      // Gather to the master, sort there (order-preserving fragment).
      Pipeline closed = std::move(pipeline);
      int exchange =
          ClosePipeline(std::move(closed), Partitioning::kToOne, {}, {0});
      Pipeline master;
      master.root = MakeMergerOp(exchange, output);
      master.nodes = {0};
      std::vector<SortKey> keys;
      for (const BoundOrder& o : query_.order_by) {
        keys.push_back(SortKey{o.output_index, o.ascending});
      }
      master.root = MakeSortOp(std::move(master.root), std::move(keys));
      plan_.result_exchange_id = ClosePipeline(
          std::move(master), Partitioning::kToOne, {}, {0},
          /*order_preserving=*/true);
    } else {
      plan_.result_exchange_id =
          ClosePipeline(std::move(pipeline), Partitioning::kToOne, {}, {0});
    }
    plan_.result_schema = std::move(output);
    return Status::OK();
  }

  Catalog* catalog_;
  const PlannerOptions& options_;
  const BoundQuery& query_;
  // Mutable working copies (rebased onto the aggregation output).
  std::vector<BExprPtr> select_exprs_;
  BExprPtr having_;

  PhysicalPlan plan_;
  int next_exchange_ = 0;
  /// Per relation: its pushed-down filters, lowered and AND-folded (null
  /// when it has none).
  std::vector<ExprPtr> rel_preds_;
  std::vector<JoinEdge> edges_;
  std::vector<BExprPtr> residuals_;
  std::vector<int> needed_cols_;
  /// Per relation: estimated post-filter rows, memoized by EffRows.
  std::vector<std::optional<int64_t>> eff_rows_;
};

std::vector<int64_t> SelectivitySamplePositions(int64_t num_rows) {
  std::vector<int64_t> positions;
  if (num_rows <= kSampleRows) {
    positions.resize(static_cast<size_t>(std::max<int64_t>(num_rows, 0)));
    std::iota(positions.begin(), positions.end(), 0);
    return positions;
  }
  positions.reserve(static_cast<size_t>(kSampleRows));
  for (int64_t s = 0; s < kSampleRows; ++s) {
    // A uniform point of the s-th of kSampleRows equal slices of [0, rows):
    // every row is drawn with probability kSampleRows / rows. (Whole-row
    // strata would be 2 and 3 rows long at 2.5 rows per stratum, and alias
    // with data of period 5.) The draw is a seeded hash of s scaled by a
    // multiply-high: a generator's state chain or a modulo per slice cost as
    // much as counting the sample.
    const uint64_t draw =
        MixHash(kSampleSeed + static_cast<uint64_t>(s) * 0x9E3779B97F4A7C15ULL);
    const auto u = static_cast<int64_t>(
        (static_cast<unsigned __int128>(draw) *
         static_cast<uint64_t>(num_rows)) >>
        64);
    positions.push_back((s * num_rows + u) / kSampleRows);
  }
  return positions;
}

SelectivitySample SampleSelectivity(const Table& table, const ExprPtr& pred) {
  const std::unique_ptr<BatchPredicate> kernel =
      BatchPredicate::Compile(table.schema(), pred);
  SelectivitySample sample;
  std::vector<int32_t> sel;
  const std::vector<int64_t> positions =
      SelectivitySamplePositions(table.num_rows());
  size_t next = 0;  // the first position not yet counted
  int64_t base = 0;  // the table position of the current block's first row
  for (int p = 0; p < table.num_partitions(); ++p) {
    const TablePartition& part = table.partition(p);
    for (int b = 0; b < part.num_blocks() && next < positions.size(); ++b) {
      const Block& block = *part.block(b);
      const int64_t end = base + block.num_rows();
      sel.clear();
      for (; next < positions.size() && positions[next] < end; ++next) {
        sel.push_back(static_cast<int32_t>(positions[next] - base));
      }
      base = end;
      if (sel.empty()) continue;
      const auto n = static_cast<int32_t>(sel.size());
      // In place: FilterBlock writes survivors at or behind its read cursor.
      sample.hits += kernel->FilterBlock(block, sel.data(), n, sel.data());
      sample.rows += n;
    }
  }
  return sample;
}

Planner::Planner(Catalog* catalog, PlannerOptions options)
    : catalog_(catalog), options_(options) {}

Result<PhysicalPlan> Planner::PlanSql(std::string_view sql) {
  CLAIMS_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  CLAIMS_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound,
                          BindSelect(*stmt, *catalog_));
  return Plan(*bound);
}

Result<PhysicalPlan> Planner::Plan(const BoundQuery& query) {
  Impl impl(catalog_, options_, query);
  return impl.Run();
}

}  // namespace claims
