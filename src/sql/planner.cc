#include "sql/planner.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "exec/expr/batch_expr.h"
#include "sql/parser.h"

namespace claims {

namespace {

/// Rows per relation in the selectivity sample (a storage-order prefix).
constexpr int64_t kSampleRows = 20000;

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
        group_by_(query.group_by),
        aggregates_(query.aggregates),
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
    /// Virtual columns the stream is hash-partitioned on (empty: unknown).
    std::set<int> partition_virt;
  };

  struct JoinEdge {
    int left_virt;
    int right_virt;
    bool used = false;
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
    for (const BExprPtr& e : group_by_) collect(e);
    for (const BoundAggregate& a : aggregates_) collect(a.arg);
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
      p.root = MakeScanOp(*rel.table, options_.numa_sockets);
      for (int n = 0; n < rel.table->num_partitions(); ++n) {
        p.nodes.push_back(n);
      }
      for (int c = 0; c < rel.schema.num_columns(); ++c) {
        p.virt2stream[rel.virtual_base + c] = c;
      }
      for (int c : rel.partition_cols) {
        p.partition_virt.insert(rel.virtual_base + c);
      }
    } else {
      // Derived table: plan the subquery; its sender hash-partitions on
      // output column 0 across all nodes.
      Impl sub(catalog_, options_, *rel.subquery);
      CLAIMS_ASSIGN_OR_RETURN(int exchange,
                              sub.RunAsSubquery(&plan_, &next_exchange_));
      p.root = MakeMergerOp(exchange, rel.schema);
      p.nodes = AllNodes();
      for (int c = 0; c < rel.schema.num_columns(); ++c) {
        p.virt2stream[rel.virtual_base + c] = c;
      }
      p.partition_virt.insert(rel.virtual_base + 0);
    }
    if (const ExprPtr& pred = rel_preds_[static_cast<size_t>(rel_index)]) {
      p.root = MakeFilterOp(std::move(p.root), pred);
    }
    CLAIMS_RETURN_IF_ERROR(ApplyCoveredResiduals(&p));
    return p;
  }

  // --- join pipeline ---------------------------------------------------------------

  Result<Pipeline> BuildJoinPipeline() {
    const int nrel = static_cast<int>(query_.relations.size());
    // Greedy left-deep order: stream the largest relation, then join the
    // smallest connected relation first.
    std::vector<bool> joined(static_cast<size_t>(nrel), false);
    int start = 0;
    for (int r = 1; r < nrel; ++r) {
      if (EffRows(r) > EffRows(start)) start = r;
    }
    CLAIMS_ASSIGN_OR_RETURN(Pipeline pipeline, StartRelation(start));
    joined[static_cast<size_t>(start)] = true;
    int remaining = nrel - 1;

    while (remaining > 0) {
      // Next: smallest relation connected by an unused edge to the set.
      int next = -1;
      for (int r = 0; r < nrel; ++r) {
        if (joined[static_cast<size_t>(r)]) continue;
        bool connected = false;
        for (const JoinEdge& e : edges_) {
          int rl = query_.relation_of(e.left_virt);
          int rr = query_.relation_of(e.right_virt);
          if ((rl == r && joined[static_cast<size_t>(rr)]) ||
              (rr == r && joined[static_cast<size_t>(rl)])) {
            connected = true;
            break;
          }
        }
        if (connected && (next < 0 || EffRows(r) < EffRows(next))) {
          next = r;
        }
      }
      if (next < 0) {
        return Status::PlanError(
            "query requires a cross join (no join predicate connects all "
            "relations)");
      }
      CLAIMS_RETURN_IF_ERROR(JoinRelation(&pipeline, next, joined));
      joined[static_cast<size_t>(next)] = true;
      --remaining;
    }
    CLAIMS_RETURN_IF_ERROR(ApplyCoveredResiduals(&pipeline));
    if (!residuals_.empty()) {
      return Status::PlanError("unresolvable residual predicate");
    }
    return pipeline;
  }

  Status JoinRelation(Pipeline* pipeline, int rel_index,
                      const std::vector<bool>& joined) {
    const BoundRelation& rel =
        query_.relations[static_cast<size_t>(rel_index)];
    // Join keys: all unused edges between `rel` and the joined set.
    std::vector<int> stream_key_virt;  // probe-side (current pipeline)
    std::vector<int> build_key_virt;   // build-side (new relation)
    for (JoinEdge& e : edges_) {
      if (e.used) continue;
      int rl = query_.relation_of(e.left_virt);
      int rr = query_.relation_of(e.right_virt);
      if (rl == rel_index && joined[static_cast<size_t>(rr)]) {
        build_key_virt.push_back(e.left_virt);
        stream_key_virt.push_back(e.right_virt);
        e.used = true;
      } else if (rr == rel_index && joined[static_cast<size_t>(rl)]) {
        build_key_virt.push_back(e.right_virt);
        stream_key_virt.push_back(e.left_virt);
        e.used = true;
      }
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
    const bool stream_partitioned_on_keys = [&] {
      if (pipeline->partition_virt.empty()) return false;
      // Every partition column must be among the probe keys (a superset of
      // partition columns keeps co-location: equal keys share all columns).
      for (int v : pipeline->partition_virt) {
        if (std::find(stream_key_virt.begin(), stream_key_virt.end(), v) ==
            stream_key_virt.end()) {
          return false;
        }
      }
      return true;
    }();
    const bool build_colocated =
        stream_partitioned_on_keys && rel.table != nullptr &&
        !rel.partition_cols.empty() &&
        build.nodes == pipeline->nodes && [&] {
          // Build partition columns must match the build keys positionally
          // aligned with the stream partition columns — conservative check:
          // set equality of build partition cols and build keys.
          std::set<int> pc;
          for (int c : rel.partition_cols) pc.insert(rel.virtual_base + c);
          std::set<int> bk(build_key_virt.begin(), build_key_virt.end());
          return pc == bk;
        }();

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
      std::vector<int> hash_cols = stream_cols_of(build, build_key_virt);
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
      for (int v : stream_key_virt) pipeline->partition_virt.insert(v);

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
    std::map<int, int> new_map;
    for (const auto& [v, c] : build_map) new_map[v] = c;
    for (const auto& [v, c] : pipeline->virt2stream) {
      new_map[v] = build_width + c;
    }
    pipeline->virt2stream = std::move(new_map);
    // Equal join keys propagate the partitioning property to the build side.
    for (size_t i = 0; i < stream_key_virt.size(); ++i) {
      if (pipeline->partition_virt.count(stream_key_virt[i])) {
        pipeline->partition_virt.insert(build_key_virt[i]);
      }
    }
    return ApplyCoveredResiduals(pipeline);
  }

  // --- aggregation -------------------------------------------------------------

  /// Synthetic id of agg-output stream position j.
  int SynthId(int j) const { return query_.num_virtual_columns() + j; }

  Result<Pipeline> PlanAggregation(Pipeline pipeline) {
    const int ngroup = static_cast<int>(group_by_.size());
    const int naggs = static_cast<int>(aggregates_.size());
    // Capture the original group expression texts before PreAggShuffle
    // rewrites them — post-aggregation SELECT/HAVING expressions refer to
    // the *original* shapes.
    std::vector<std::string> orig_group_texts;
    for (const BExprPtr& g : group_by_) {
      orig_group_texts.push_back(g->ToString());
    }

    const bool local_correct = [&] {
      if (ngroup == 0) return false;  // scalar: needs a final combine anyway
      if (pipeline.partition_virt.empty()) return false;
      for (int v : pipeline.partition_virt) {
        bool in_group = false;
        for (const BExprPtr& g : group_by_) {
          if (g->kind == BExpr::Kind::kColumn && g->column == v) {
            in_group = true;
            break;
          }
        }
        if (!in_group) return false;
      }
      return true;
    }();

    if (ngroup > 0 && !local_correct) {
      // Paper Fig. 1: materialize the group keys, repartition on them, then
      // aggregate in a single phase on the receiving segments.
      CLAIMS_RETURN_IF_ERROR(PreAggShuffle(&pipeline));
    }

    if (ngroup == 0) {
      return PlanScalarAggregation(std::move(pipeline));
    }

    // Single-phase grouped aggregation on the (now co-grouped) stream.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (int g = 0; g < ngroup; ++g) {
      CLAIMS_ASSIGN_OR_RETURN(ExprPtr e, Lower(*group_by_[g], pipeline));
      group_exprs.push_back(std::move(e));
      group_names.push_back(StrFormat("g%d", g));
    }
    std::vector<HashAggIterator::Aggregate> aggs;
    for (int a = 0; a < naggs; ++a) {
      const BoundAggregate& agg = aggregates_[static_cast<size_t>(a)];
      ExprPtr arg;
      if (agg.arg != nullptr) {
        CLAIMS_ASSIGN_OR_RETURN(arg, Lower(*agg.arg, pipeline));
      }
      aggs.push_back(
          HashAggIterator::Aggregate{agg.fn, std::move(arg), agg.name});
    }
    pipeline.root =
        MakeHashAggOp(std::move(pipeline.root), std::move(group_exprs),
                      std::move(group_names), std::move(aggs),
                      options_.agg_mode);

    // Rebase post-aggregation expressions: group expr g ↦ output col g,
    // slot a ↦ output col ngroup + a.
    std::vector<std::pair<std::string, BExprPtr>> group_subs;
    std::map<int, int> new_map;
    for (int g = 0; g < ngroup; ++g) {
      const BExpr& ge = *group_by_[g];
      BExprPtr sub = BColumn(SynthId(g), ge.type, ge.char_width);
      group_subs.emplace_back(orig_group_texts[static_cast<size_t>(g)], sub);
      new_map[SynthId(g)] = g;
      if (ge.kind == BExpr::Kind::kColumn) new_map[ge.column] = g;
    }
    std::vector<BExprPtr> slot_exprs;
    for (int a = 0; a < naggs; ++a) {
      DataType t = pipeline.root->output_schema.column(ngroup + a).type;
      slot_exprs.push_back(BColumn(SynthId(ngroup + a), t));
      new_map[SynthId(ngroup + a)] = ngroup + a;
    }
    pipeline.virt2stream = std::move(new_map);
    RewritePostAgg(group_subs, slot_exprs);
    pipeline.partition_virt.clear();
    return std::move(pipeline);
  }

  /// Projects group keys + aggregate inputs, then shuffles on the group keys.
  Status PreAggShuffle(Pipeline* pipeline) {
    const int ngroup = static_cast<int>(group_by_.size());
    const Schema& schema = pipeline->root->output_schema;
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    std::map<int, int> new_map;
    // Group expressions become materialized columns 0..ngroup-1.
    for (int g = 0; g < ngroup; ++g) {
      CLAIMS_ASSIGN_OR_RETURN(ExprPtr e, Lower(*group_by_[g], *pipeline));
      exprs.push_back(std::move(e));
      names.push_back(StrFormat("g%d", g));
    }
    // Aggregate inputs keep their source columns.
    std::vector<int> arg_virt;
    for (const BoundAggregate& a : aggregates_) {
      if (a.arg != nullptr) CollectColumns(*a.arg, &arg_virt);
    }
    int pos = ngroup;
    for (int v : arg_virt) {
      if (new_map.count(v)) continue;
      int stream = pipeline->virt2stream.at(v);
      exprs.push_back(MakeColumnRef(stream, schema.column(stream).type,
                                    schema.column(stream).name));
      names.push_back(schema.column(stream).name);
      new_map[v] = pos++;
    }
    pipeline->root = MakeProjectOp(std::move(pipeline->root), std::move(exprs),
                                   std::move(names));
    // Rewrite the group expressions to the materialized columns so the
    // post-shuffle aggregation groups by plain column references.
    for (int g = 0; g < ngroup; ++g) {
      const BExpr& ge = *group_by_[g];
      int gv = SynthGroupInputId(g);
      if (ge.kind == BExpr::Kind::kColumn) {
        // Plain column: just remap it.
        new_map[ge.column] = g;
      } else {
        group_by_[static_cast<size_t>(g)] =
            BColumn(gv, ge.type, ge.char_width);
        new_map[gv] = g;
        // Aggregate args never reference the rewritten group expr (they were
        // collected above), so no further rewriting is needed.
      }
    }
    pipeline->virt2stream = std::move(new_map);

    Schema shuffled = pipeline->root->output_schema;
    std::map<int, int> map_copy = pipeline->virt2stream;
    std::vector<int> hash_cols;
    for (int g = 0; g < ngroup; ++g) hash_cols.push_back(g);
    std::vector<int> nodes = AllNodes();
    Pipeline closed = std::move(*pipeline);
    int exchange = ClosePipeline(std::move(closed), Partitioning::kHash,
                                 std::move(hash_cols), nodes);
    pipeline->root = MakeMergerOp(exchange, std::move(shuffled));
    pipeline->nodes = std::move(nodes);
    pipeline->virt2stream = std::move(map_copy);
    pipeline->partition_virt.clear();
    for (int g = 0; g < ngroup; ++g) {
      const BExpr& ge = *group_by_[g];
      pipeline->partition_virt.insert(
          ge.kind == BExpr::Kind::kColumn ? ge.column : SynthGroupInputId(g));
    }
    return Status::OK();
  }

  /// Synthetic id for a materialized (non-column) group input expression.
  int SynthGroupInputId(int g) const {
    return query_.num_virtual_columns() + 1000 + g;
  }

  /// Scalar aggregates: local partials on the stream, gather, final combine
  /// on the master.
  Result<Pipeline> PlanScalarAggregation(Pipeline pipeline) {
    const int naggs = static_cast<int>(aggregates_.size());
    // Partial slots: AVG expands into (sum, count).
    std::vector<HashAggIterator::Aggregate> partials;
    struct SlotMap {
      int first;        // partial/final column of the primary state
      int second = -1;  // count column for AVG
      AggFn fn;
    };
    std::vector<SlotMap> slots;
    for (int a = 0; a < naggs; ++a) {
      const BoundAggregate& agg = aggregates_[static_cast<size_t>(a)];
      ExprPtr arg;
      if (agg.arg != nullptr) {
        CLAIMS_ASSIGN_OR_RETURN(arg, Lower(*agg.arg, pipeline));
      }
      SlotMap sm;
      sm.fn = agg.fn;
      sm.first = static_cast<int>(partials.size());
      if (agg.fn == AggFn::kAvg) {
        partials.push_back(HashAggIterator::Aggregate{
            AggFn::kSum, arg, agg.name + "_sum"});
        sm.second = static_cast<int>(partials.size());
        partials.push_back(
            HashAggIterator::Aggregate{AggFn::kCount, nullptr,
                                       agg.name + "_cnt"});
      } else {
        partials.push_back(
            HashAggIterator::Aggregate{agg.fn, std::move(arg), agg.name});
      }
      slots.push_back(sm);
    }
    pipeline.root = MakeHashAggOp(std::move(pipeline.root), {}, {},
                                  std::move(partials), options_.agg_mode);

    // Gather partial rows to the master.
    Schema partial_schema = pipeline.root->output_schema;
    Pipeline closed = std::move(pipeline);
    int exchange = ClosePipeline(std::move(closed), Partitioning::kToOne, {},
                                 {0});
    Pipeline master;
    master.root = MakeMergerOp(exchange, partial_schema);
    master.nodes = {0};

    // Final combine: COUNT partials merge by SUM; SUM by SUM; MIN/MAX keep.
    std::vector<HashAggIterator::Aggregate> finals;
    for (int c = 0; c < partial_schema.num_columns(); ++c) {
      const ColumnDef& col = partial_schema.column(c);
      AggFn fn = AggFn::kSum;
      // Identify MIN/MAX partials by their original function.
      for (const SlotMap& sm : slots) {
        if (sm.first == c && (sm.fn == AggFn::kMin || sm.fn == AggFn::kMax)) {
          fn = sm.fn;
        }
      }
      finals.push_back(HashAggIterator::Aggregate{
          fn, MakeColumnRef(c, col.type, col.name), col.name});
    }
    master.root = MakeHashAggOp(std::move(master.root), {}, {},
                                std::move(finals), HashAggIterator::Mode::kShared);

    // Slot substitutions for the final SELECT expressions.
    std::vector<BExprPtr> slot_exprs;
    std::map<int, int> new_map;
    const Schema& final_schema = master.root->output_schema;
    for (int c = 0; c < final_schema.num_columns(); ++c) {
      new_map[SynthId(c)] = c;
    }
    for (const SlotMap& sm : slots) {
      if (sm.fn == AggFn::kAvg) {
        slot_exprs.push_back(BArith(
            ArithOp::kDiv,
            BColumn(SynthId(sm.first), final_schema.column(sm.first).type),
            BColumn(SynthId(sm.second), DataType::kInt64)));
      } else {
        slot_exprs.push_back(
            BColumn(SynthId(sm.first), final_schema.column(sm.first).type));
      }
    }
    master.virt2stream = std::move(new_map);
    RewritePostAgg({}, slot_exprs);
    return std::move(master);
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
  // Mutable working copies (rewritten during aggregation planning).
  std::vector<BExprPtr> group_by_;
  std::vector<BoundAggregate> aggregates_;
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

SelectivitySample SampleSelectivity(const Table& table, const ExprPtr& pred) {
  const std::unique_ptr<BatchPredicate> kernel =
      BatchPredicate::Compile(table.schema(), pred);
  SelectivitySample sample;
  std::vector<int32_t> survivors;
  for (int p = 0; p < table.num_partitions() && sample.rows < kSampleRows;
       ++p) {
    const TablePartition& part = table.partition(p);
    for (int b = 0; b < part.num_blocks() && sample.rows < kSampleRows; ++b) {
      const Block& block = *part.block(b);
      const auto n = static_cast<int32_t>(
          std::min<int64_t>(block.num_rows(), kSampleRows - sample.rows));
      if (survivors.size() < static_cast<size_t>(n)) survivors.resize(n);
      sample.hits += kernel->FilterBlock(block, nullptr, n, survivors.data());
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
