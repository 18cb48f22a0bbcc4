#include "cluster/plan.h"

#include "common/string_util.h"
#include "exec/ops/hash_join.h"

namespace claims {

namespace {

const char* KindName(POp::Kind kind) {
  switch (kind) {
    case POp::Kind::kScan: return "Scan";
    case POp::Kind::kMerger: return "Merger";
    case POp::Kind::kFilter: return "Filter";
    case POp::Kind::kProject: return "Project";
    case POp::Kind::kHashJoin: return "HashJoin";
    case POp::Kind::kHashAgg: return "HashAgg";
    case POp::Kind::kSort: return "Sort";
  }
  return "?";
}

}  // namespace

std::string POp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + KindName(kind);
  switch (kind) {
    case Kind::kScan:
      out += "(" + table_name + ")";
      // Fused pushdown filter keeps the Filter(...) rendering so EXPLAIN
      // output still names the predicate.
      if (predicate != nullptr) out += " Filter(" + predicate->ToString() + ")";
      break;
    case Kind::kMerger:
      out += StrFormat("(exchange=%d)", exchange_id);
      break;
    case Kind::kFilter:
      out += "(" + predicate->ToString() + ")";
      break;
    case Kind::kProject: {
      out += "(";
      for (size_t i = 0; i < project_exprs.size(); ++i) {
        if (i) out += ", ";
        out += project_exprs[i]->ToString();
      }
      out += ")";
      break;
    }
    case Kind::kHashJoin: {
      out += "(build keys:";
      for (int k : build_keys) out += StrFormat(" %d", k);
      out += ", probe keys:";
      for (int k : probe_keys) out += StrFormat(" %d", k);
      out += ")";
      break;
    }
    case Kind::kHashAgg: {
      out += "(group:";
      for (const auto& g : group_exprs) out += " " + g->ToString();
      out += "; aggs:";
      for (const auto& a : aggregates) {
        out += StrFormat(" %s(%s)", AggFnName(a.fn),
                         a.arg != nullptr ? a.arg->ToString().c_str() : "*");
      }
      out += ")";
      break;
    }
    case Kind::kSort: {
      out += "(keys:";
      for (const SortKey& k : sort_keys) {
        out += StrFormat(" %d%s", k.column, k.ascending ? "" : " desc");
      }
      out += ")";
      break;
    }
  }
  out += "\n";
  for (const auto& c : children) out += c->ToString(indent + 1);
  return out;
}

std::unique_ptr<POp> MakeScanOp(const Table& table) {
  auto op = std::make_unique<POp>();
  op->kind = POp::Kind::kScan;
  op->table_name = table.name();
  op->output_schema = table.schema();
  return op;
}

std::unique_ptr<POp> MakeMergerOp(int exchange_id, Schema schema) {
  auto op = std::make_unique<POp>();
  op->kind = POp::Kind::kMerger;
  op->exchange_id = exchange_id;
  op->output_schema = std::move(schema);
  return op;
}

std::unique_ptr<POp> MakeFilterOp(std::unique_ptr<POp> child, ExprPtr pred) {
  // Filter directly over a scan fuses into it (predicate pushdown): the scan
  // then filters during its copy-out of storage, skipping one whole block
  // materialization per input block.
  if (child->kind == POp::Kind::kScan && child->predicate == nullptr) {
    child->predicate = std::move(pred);
    return child;
  }
  auto op = std::make_unique<POp>();
  op->kind = POp::Kind::kFilter;
  op->output_schema = child->output_schema;
  op->predicate = std::move(pred);
  op->children.push_back(std::move(child));
  return op;
}

std::unique_ptr<POp> MakeProjectOp(std::unique_ptr<POp> child,
                                   std::vector<ExprPtr> exprs,
                                   std::vector<std::string> names) {
  auto op = std::make_unique<POp>();
  op->kind = POp::Kind::kProject;
  std::vector<ColumnDef> cols;
  for (size_t i = 0; i < exprs.size(); ++i) {
    DataType t = exprs[i]->type();
    int32_t width = 0;
    if (t == DataType::kChar) {
      int col = AsColumnRef(*exprs[i]);
      width = col >= 0 ? child->output_schema.column(col).char_width : 64;
    }
    std::string name =
        i < names.size() && !names[i].empty() ? names[i] : exprs[i]->ToString();
    cols.push_back(ColumnDef{std::move(name), t, width});
  }
  op->output_schema = Schema(std::move(cols));
  op->project_exprs = std::move(exprs);
  op->children.push_back(std::move(child));
  return op;
}

std::unique_ptr<POp> MakeHashJoinOp(std::unique_ptr<POp> build,
                                    std::unique_ptr<POp> probe,
                                    std::vector<int> build_keys,
                                    std::vector<int> probe_keys) {
  auto op = std::make_unique<POp>();
  op->kind = POp::Kind::kHashJoin;
  op->output_schema =
      JoinOutputSchema(build->output_schema, probe->output_schema);
  op->build_keys = std::move(build_keys);
  op->probe_keys = std::move(probe_keys);
  op->children.push_back(std::move(build));
  op->children.push_back(std::move(probe));
  return op;
}

std::unique_ptr<POp> MakeHashAggOp(std::unique_ptr<POp> child,
                                   std::vector<ExprPtr> group_exprs,
                                   std::vector<std::string> group_names,
                                   std::vector<HashAggIterator::Aggregate> aggs,
                                   HashAggIterator::Mode mode) {
  auto op = std::make_unique<POp>();
  op->kind = POp::Kind::kHashAgg;
  // Reconstruct the iterator's output schema: group columns then aggregates.
  std::vector<ColumnDef> cols;
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    DataType t = group_exprs[i]->type();
    int32_t width = 0;
    if (t == DataType::kChar) {
      int col = AsColumnRef(*group_exprs[i]);
      width = col >= 0 ? child->output_schema.column(col).char_width : 64;
    }
    std::string name = i < group_names.size() ? group_names[i]
                                              : group_exprs[i]->ToString();
    cols.push_back(ColumnDef{std::move(name), t, width});
  }
  for (const auto& a : aggs) {
    DataType arg_type = a.arg != nullptr ? a.arg->type() : DataType::kInt64;
    cols.push_back(ColumnDef{a.name, AggOutputType(a.fn, arg_type), 0});
  }
  op->output_schema = Schema(std::move(cols));
  op->group_exprs = std::move(group_exprs);
  op->group_names = std::move(group_names);
  op->aggregates = std::move(aggs);
  op->agg_mode = mode;
  op->children.push_back(std::move(child));
  return op;
}

std::unique_ptr<POp> MakeSortOp(std::unique_ptr<POp> child,
                                std::vector<SortKey> keys) {
  auto op = std::make_unique<POp>();
  op->kind = POp::Kind::kSort;
  op->output_schema = child->output_schema;
  op->sort_keys = std::move(keys);
  op->children.push_back(std::move(child));
  return op;
}

std::string Fragment::ToString() const {
  std::string out = StrFormat("Fragment %d on %zu node(s)", id, nodes.size());
  const char* part = partitioning == Partitioning::kHash ? "hash"
                     : partitioning == Partitioning::kBroadcast ? "broadcast"
                                                                : "gather";
  out += StrFormat(" -> exchange %d (%s", out_exchange_id, part);
  if (partitioning == Partitioning::kHash) {
    out += " on";
    for (int c : hash_cols) out += StrFormat(" %d", c);
  }
  out += ")\n";
  out += root->ToString(1);
  return out;
}

std::string PhysicalPlan::ToString() const {
  std::string out;
  for (const auto& f : fragments) out += f->ToString();
  return out;
}

}  // namespace claims
