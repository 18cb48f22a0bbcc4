#include "exec/expr/batch_expr.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "exec/expr/like.h"
#include "mem/scratch.h"
#include "storage/types.h"
#include "storage/value.h"

namespace claims {

namespace {

bool IsIntFamily(DataType t) {
  return t == DataType::kInt32 || t == DataType::kInt64 ||
         t == DataType::kDate;
}
bool IsIntValue(const Value& v) { return IsIntFamily(v.type()); }

/// Scratch lanes for `n` rows (at least one, so an empty batch takes a
/// valid buffer).
size_t Lanes(int32_t n) { return static_cast<size_t>(std::max(n, 1)); }

inline int64_t LoadInt(const char* p, bool is32) {
  if (is32) {
    int32_t v;
    std::memcpy(&v, p, 4);
    return v;
  }
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline double LoadNum(const char* p, DataType t) {
  switch (t) {
    case DataType::kInt32:
    case DataType::kDate: {
      int32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case DataType::kInt64: {
      int64_t v;
      std::memcpy(&v, p, 8);
      return static_cast<double>(v);
    }
    default: {
      double v;
      std::memcpy(&v, p, 8);
      return v;
    }
  }
}

inline std::string_view LoadStr(const char* p, int32_t width) {
  return std::string_view(p, strnlen(p, width));
}

/// The branch-free selection loop shared by all compare kernels: `lhs`/`rhs`
/// map a row index to comparable operands.
template <typename LhsFn, typename RhsFn>
int32_t CmpLoop(CompareOp op, const int32_t* sel, int32_t n, int32_t* out,
                LhsFn lhs, RhsFn rhs) {
  int32_t k = 0;
#define CLAIMS_CMP_CASE(ENUM, OP)                         \
  case CompareOp::ENUM:                                   \
    for (int32_t i = 0; i < n; ++i) {                     \
      int32_t r = sel != nullptr ? sel[i] : i;            \
      out[k] = r;                                         \
      k += static_cast<int32_t>(lhs(r) OP rhs(r));        \
    }                                                     \
    break;
  switch (op) {
    CLAIMS_CMP_CASE(kEq, ==)
    CLAIMS_CMP_CASE(kNe, !=)
    CLAIMS_CMP_CASE(kLt, <)
    CLAIMS_CMP_CASE(kLe, <=)
    CLAIMS_CMP_CASE(kGt, >)
    CLAIMS_CMP_CASE(kGe, >=)
  }
#undef CLAIMS_CMP_CASE
  return k;
}

/// out = sel \ sub, where `sub` is a sorted subset of `sel` (both ascending).
int32_t Complement(const int32_t* sel, int32_t n, const int32_t* sub,
                   int32_t m, int32_t* out) {
  int32_t k = 0, j = 0;
  for (int32_t i = 0; i < n; ++i) {
    int32_t r = sel != nullptr ? sel[i] : i;
    if (j < m && sub[j] == r) {
      ++j;
    } else {
      out[k++] = r;
    }
  }
  return k;
}

/// Merges two disjoint sorted index lists.
int32_t MergeSorted(const int32_t* a, int32_t na, const int32_t* b, int32_t nb,
                    int32_t* out) {
  int32_t i = 0, j = 0, k = 0;
  while (i < na && j < nb) out[k++] = a[i] < b[j] ? a[i++] : b[j++];
  while (i < na) out[k++] = a[i++];
  while (j < nb) out[k++] = b[j++];
  return k;
}

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;  // Eq / Ne are symmetric.
  }
}

}  // namespace

// --- BatchPredicate ---------------------------------------------------------

struct BatchPredicate::Impl {
  struct Node {
    enum class Op {
      kAnd,
      kOr,
      kNot,
      kCmpIntLit,   // int-family column vs integer literal, exact int64
      kCmpNumLit,   // numeric column vs literal, widened double
      kCmpStrLit,   // CHAR column vs string literal, lexicographic
      kCmpIntCol,   // int-family column vs int-family column
      kCmpNumCol,   // numeric column vs numeric column, widened double
      kCmpStrCol,   // CHAR column vs CHAR column
      kYearRange,   // YEAR(date_col) vs integer literal, as a day range
      kLike,        // CHAR column (NOT) LIKE pattern
      kInIntList,   // int-family column IN all-integer list
      kInNumList,   // float column IN numeric list (double compares)
      kInStrList,   // CHAR column IN all-string list
      kScalar,      // uncompiled subtree via Expr::EvalBool
    };

    Op op;
    CompareOp cmp = CompareOp::kEq;
    int left = -1;   // child node (logic) — also the only child of kNot
    int right = -1;
    int32_t off = 0, off2 = 0;       // column byte offsets
    bool is32 = false, is32_2 = false;  // 4-byte integer loads
    DataType ctype = DataType::kInt64, ctype2 = DataType::kInt64;
    int32_t width = 0, width2 = 0;   // CHAR payload widths
    int64_t i64 = 0;
    double f64 = 0;
    std::string str;                 // string literal / LIKE pattern
    std::vector<int64_t> int_list;
    std::vector<double> num_list;
    std::vector<std::string> str_list;
    int32_t lo = 0, hi = 0;          // kYearRange day bounds [lo, hi)
    bool negated = false;
    const Expr* scalar = nullptr;
  };

  Schema schema;
  ExprPtr expr;  // owns the tree the nodes borrow from
  std::vector<Node> nodes;
  int root = -1;
  bool fully_compiled = true;

  int Add(Node n) {
    nodes.push_back(std::move(n));
    return static_cast<int>(nodes.size()) - 1;
  }

  int AddScalar(const Expr* e) {
    fully_compiled = false;
    Node n;
    n.op = Node::Op::kScalar;
    n.scalar = e;
    return Add(std::move(n));
  }

  void FillColumn(Node* n, int col, bool second) {
    const ColumnDef& c = schema.column(col);
    if (second) {
      n->off2 = schema.offset(col);
      n->is32_2 = c.type == DataType::kInt32 || c.type == DataType::kDate;
      n->ctype2 = c.type;
      n->width2 = c.char_width;
    } else {
      n->off = schema.offset(col);
      n->is32 = c.type == DataType::kInt32 || c.type == DataType::kDate;
      n->ctype = c.type;
      n->width = c.char_width;
    }
  }

  int CompileCompare(const Expr* e, CompareOp op, const Expr* l,
                     const Expr* r) {
    ExprShape ls = l->Shape();
    ExprShape rs = r->Shape();
    // Normalize "literal OP x" to "x flip(OP) literal".
    if (ls.kind == ExprShape::Kind::kLiteral &&
        rs.kind != ExprShape::Kind::kLiteral) {
      std::swap(ls, rs);
      op = FlipCompare(op);
    }

    if (ls.kind == ExprShape::Kind::kColumnRef &&
        rs.kind == ExprShape::Kind::kLiteral) {
      const ColumnDef& c = schema.column(ls.column);
      const Value& v = *rs.literal;
      Node n;
      n.cmp = op;
      FillColumn(&n, ls.column, /*second=*/false);
      if (c.type == DataType::kChar && v.is_string()) {
        n.op = Node::Op::kCmpStrLit;
        n.str = v.AsString();
        return Add(std::move(n));
      }
      if (IsIntFamily(c.type) && IsIntValue(v)) {
        n.op = Node::Op::kCmpIntLit;
        n.i64 = v.AsInt64();
        return Add(std::move(n));
      }
      if ((IsIntFamily(c.type) || c.type == DataType::kFloat64) &&
          !v.is_string()) {
        n.op = Node::Op::kCmpNumLit;
        n.f64 = v.ToDouble();
        return Add(std::move(n));
      }
      return AddScalar(e);
    }

    // YEAR(date_col) vs integer literal compiles to a day-range test:
    // YEAR(d) == y  ⇔  d ∈ [Jan 1 of y, Jan 1 of y+1).
    if (ls.kind == ExprShape::Kind::kYear &&
        rs.kind == ExprShape::Kind::kLiteral && IsIntValue(*rs.literal)) {
      int col = AsColumnRef(*ls.child);
      if (col >= 0 && (schema.column(col).type == DataType::kDate ||
                       schema.column(col).type == DataType::kInt32)) {
        int64_t y = rs.literal->AsInt64();
        Node n;
        n.op = Node::Op::kYearRange;
        n.cmp = op;
        FillColumn(&n, col, /*second=*/false);
        n.lo = DaysFromCivil(static_cast<int>(y), 1, 1);
        n.hi = DaysFromCivil(static_cast<int>(y) + 1, 1, 1);
        return Add(std::move(n));
      }
    }

    if (ls.kind == ExprShape::Kind::kColumnRef &&
        rs.kind == ExprShape::Kind::kColumnRef) {
      const ColumnDef& a = schema.column(ls.column);
      const ColumnDef& b = schema.column(rs.column);
      Node n;
      n.cmp = op;
      FillColumn(&n, ls.column, /*second=*/false);
      FillColumn(&n, rs.column, /*second=*/true);
      if (a.type == DataType::kChar && b.type == DataType::kChar) {
        n.op = Node::Op::kCmpStrCol;
        return Add(std::move(n));
      }
      if (IsIntFamily(a.type) && IsIntFamily(b.type)) {
        n.op = Node::Op::kCmpIntCol;
        return Add(std::move(n));
      }
      if (a.type != DataType::kChar && b.type != DataType::kChar) {
        n.op = Node::Op::kCmpNumCol;
        return Add(std::move(n));
      }
      return AddScalar(e);
    }

    return AddScalar(e);
  }

  int CompileBool(const Expr* e) {
    ExprShape s = e->Shape();
    switch (s.kind) {
      case ExprShape::Kind::kLogic: {
        // Compile children first; node indices are stable (vector append).
        int l = CompileBool(s.left);
        int r = CompileBool(s.right);
        Node n;
        n.op = s.logic_op == LogicOp::kAnd ? Node::Op::kAnd : Node::Op::kOr;
        n.left = l;
        n.right = r;
        return Add(std::move(n));
      }
      case ExprShape::Kind::kNot: {
        int c = CompileBool(s.child);
        Node n;
        n.op = Node::Op::kNot;
        n.left = c;
        return Add(std::move(n));
      }
      case ExprShape::Kind::kCompare:
        return CompileCompare(e, s.compare_op, s.left, s.right);
      case ExprShape::Kind::kLike: {
        int col = AsColumnRef(*s.child);
        if (col >= 0 && schema.column(col).type == DataType::kChar) {
          Node n;
          n.op = Node::Op::kLike;
          FillColumn(&n, col, /*second=*/false);
          n.str = *s.pattern;
          n.negated = s.negated;
          return Add(std::move(n));
        }
        return AddScalar(e);
      }
      case ExprShape::Kind::kInList: {
        int col = AsColumnRef(*s.child);
        if (col < 0) return AddScalar(e);
        const ColumnDef& c = schema.column(col);
        const std::vector<Value>& values = *s.in_values;
        Node n;
        FillColumn(&n, col, /*second=*/false);
        n.negated = s.negated;
        if (c.type == DataType::kChar) {
          for (const Value& v : values) {
            if (!v.is_string()) return AddScalar(e);
            n.str_list.push_back(v.AsString());
          }
          n.op = Node::Op::kInStrList;
          return Add(std::move(n));
        }
        if (IsIntFamily(c.type)) {
          for (const Value& v : values) {
            if (!IsIntValue(v)) return AddScalar(e);
            n.int_list.push_back(v.AsInt64());
          }
          n.op = Node::Op::kInIntList;
          return Add(std::move(n));
        }
        if (c.type == DataType::kFloat64) {
          for (const Value& v : values) {
            if (v.is_string()) return AddScalar(e);
            n.num_list.push_back(v.ToDouble());
          }
          n.op = Node::Op::kInNumList;
          return Add(std::move(n));
        }
        return AddScalar(e);
      }
      case ExprShape::Kind::kColumnRef: {
        // Bare column in boolean position: `col != 0`.
        const ColumnDef& c = schema.column(s.column);
        Node n;
        n.cmp = CompareOp::kNe;
        FillColumn(&n, s.column, /*second=*/false);
        if (IsIntFamily(c.type)) {
          n.op = Node::Op::kCmpIntLit;
          n.i64 = 0;
          return Add(std::move(n));
        }
        if (c.type == DataType::kFloat64) {
          n.op = Node::Op::kCmpNumLit;
          n.f64 = 0;
          return Add(std::move(n));
        }
        return AddScalar(e);
      }
      default:
        return AddScalar(e);
    }
  }

  int32_t Run(int idx, const Block& block, const int32_t* sel, int32_t n,
              int32_t* out) const {
    const Node& node = nodes[idx];
    const char* rows = n > 0 ? block.RowAt(0) : nullptr;
    const int32_t stride = block.row_size();
    auto row_ptr = [&](int32_t r) {
      return rows + static_cast<size_t>(r) * stride;
    };

    switch (node.op) {
      case Node::Op::kAnd: {
        // Sequential narrowing, in place: the right kernel reads `out` as its
        // selection while writing `out` — safe because every kernel's write
        // cursor trails its read cursor.
        int32_t n1 = Run(node.left, block, sel, n, out);
        return Run(node.right, block, out, n1, out);
      }
      case Node::Op::kOr: {
        // left matches ∪ (right matches on the complement) — mirrors the
        // scalar short-circuit: the right side only sees rows the left
        // rejected, then the two sorted disjoint lists merge.
        Scratch<int32_t> lhs(BlockPool::Global(), Lanes(n));
        Scratch<int32_t> rest(BlockPool::Global(), Lanes(n));
        int32_t nl = Run(node.left, block, sel, n, lhs.data());
        int32_t nc = Complement(sel, n, lhs.data(), nl, rest.data());
        int32_t nr = Run(node.right, block, rest.data(), nc, rest.data());
        return MergeSorted(lhs.data(), nl, rest.data(), nr, out);
      }
      case Node::Op::kNot: {
        Scratch<int32_t> sub(BlockPool::Global(), Lanes(n));
        int32_t m = Run(node.left, block, sel, n, sub.data());
        return Complement(sel, n, sub.data(), m, out);
      }
      case Node::Op::kCmpIntLit:
        return CmpLoop(
            node.cmp, sel, n, out,
            [&](int32_t r) { return LoadInt(row_ptr(r) + node.off, node.is32); },
            [&](int32_t) { return node.i64; });
      case Node::Op::kCmpNumLit:
        return CmpLoop(
            node.cmp, sel, n, out,
            [&](int32_t r) { return LoadNum(row_ptr(r) + node.off, node.ctype); },
            [&](int32_t) { return node.f64; });
      case Node::Op::kCmpStrLit:
        return CmpLoop(
            node.cmp, sel, n, out,
            [&](int32_t r) { return LoadStr(row_ptr(r) + node.off, node.width); },
            [&](int32_t) { return std::string_view(node.str); });
      case Node::Op::kCmpIntCol:
        return CmpLoop(
            node.cmp, sel, n, out,
            [&](int32_t r) { return LoadInt(row_ptr(r) + node.off, node.is32); },
            [&](int32_t r) {
              return LoadInt(row_ptr(r) + node.off2, node.is32_2);
            });
      case Node::Op::kCmpNumCol:
        return CmpLoop(
            node.cmp, sel, n, out,
            [&](int32_t r) { return LoadNum(row_ptr(r) + node.off, node.ctype); },
            [&](int32_t r) {
              return LoadNum(row_ptr(r) + node.off2, node.ctype2);
            });
      case Node::Op::kCmpStrCol:
        return CmpLoop(
            node.cmp, sel, n, out,
            [&](int32_t r) { return LoadStr(row_ptr(r) + node.off, node.width); },
            [&](int32_t r) {
              return LoadStr(row_ptr(r) + node.off2, node.width2);
            });
      case Node::Op::kYearRange: {
        auto day = [&](int32_t r) {
          int32_t v;
          std::memcpy(&v, row_ptr(r) + node.off, 4);
          return v;
        };
        int32_t k = 0;
        int32_t lo = node.lo, hi = node.hi;
        switch (node.cmp) {
          case CompareOp::kEq:
            for (int32_t i = 0; i < n; ++i) {
              int32_t r = sel != nullptr ? sel[i] : i;
              out[k] = r;
              int32_t d = day(r);
              k += static_cast<int32_t>(d >= lo && d < hi);
            }
            break;
          case CompareOp::kNe:
            for (int32_t i = 0; i < n; ++i) {
              int32_t r = sel != nullptr ? sel[i] : i;
              out[k] = r;
              int32_t d = day(r);
              k += static_cast<int32_t>(d < lo || d >= hi);
            }
            break;
          case CompareOp::kLt:
            for (int32_t i = 0; i < n; ++i) {
              int32_t r = sel != nullptr ? sel[i] : i;
              out[k] = r;
              k += static_cast<int32_t>(day(r) < lo);
            }
            break;
          case CompareOp::kLe:
            for (int32_t i = 0; i < n; ++i) {
              int32_t r = sel != nullptr ? sel[i] : i;
              out[k] = r;
              k += static_cast<int32_t>(day(r) < hi);
            }
            break;
          case CompareOp::kGt:
            for (int32_t i = 0; i < n; ++i) {
              int32_t r = sel != nullptr ? sel[i] : i;
              out[k] = r;
              k += static_cast<int32_t>(day(r) >= hi);
            }
            break;
          case CompareOp::kGe:
            for (int32_t i = 0; i < n; ++i) {
              int32_t r = sel != nullptr ? sel[i] : i;
              out[k] = r;
              k += static_cast<int32_t>(day(r) >= lo);
            }
            break;
        }
        return k;
      }
      case Node::Op::kLike: {
        int32_t k = 0;
        std::string_view pattern(node.str);
        for (int32_t i = 0; i < n; ++i) {
          int32_t r = sel != nullptr ? sel[i] : i;
          out[k] = r;
          bool m = LikeMatch(LoadStr(row_ptr(r) + node.off, node.width),
                             pattern);
          k += static_cast<int32_t>(node.negated ? !m : m);
        }
        return k;
      }
      case Node::Op::kInIntList: {
        int32_t k = 0;
        for (int32_t i = 0; i < n; ++i) {
          int32_t r = sel != nullptr ? sel[i] : i;
          out[k] = r;
          int64_t v = LoadInt(row_ptr(r) + node.off, node.is32);
          bool found = false;
          for (int64_t cand : node.int_list) found |= (v == cand);
          k += static_cast<int32_t>(node.negated ? !found : found);
        }
        return k;
      }
      case Node::Op::kInNumList: {
        int32_t k = 0;
        for (int32_t i = 0; i < n; ++i) {
          int32_t r = sel != nullptr ? sel[i] : i;
          out[k] = r;
          double v = LoadNum(row_ptr(r) + node.off, node.ctype);
          bool found = false;
          for (double cand : node.num_list) found |= (v == cand);
          k += static_cast<int32_t>(node.negated ? !found : found);
        }
        return k;
      }
      case Node::Op::kInStrList: {
        int32_t k = 0;
        for (int32_t i = 0; i < n; ++i) {
          int32_t r = sel != nullptr ? sel[i] : i;
          out[k] = r;
          std::string_view v = LoadStr(row_ptr(r) + node.off, node.width);
          bool found = false;
          for (const std::string& cand : node.str_list) found |= (v == cand);
          k += static_cast<int32_t>(node.negated ? !found : found);
        }
        return k;
      }
      case Node::Op::kScalar: {
        int32_t k = 0;
        for (int32_t i = 0; i < n; ++i) {
          int32_t r = sel != nullptr ? sel[i] : i;
          out[k] = r;
          k += static_cast<int32_t>(node.scalar->EvalBool(schema, row_ptr(r)));
        }
        return k;
      }
    }
    return 0;
  }
};

BatchPredicate::BatchPredicate() : impl_(new Impl) {}
BatchPredicate::~BatchPredicate() = default;

std::unique_ptr<BatchPredicate> BatchPredicate::Compile(const Schema& schema,
                                                        ExprPtr expr) {
  std::unique_ptr<BatchPredicate> p(new BatchPredicate);
  p->impl_->schema = schema;
  p->impl_->expr = std::move(expr);
  p->impl_->root = p->impl_->CompileBool(p->impl_->expr.get());
  return p;
}

int32_t BatchPredicate::FilterBlock(const Block& block, const int32_t* sel,
                                    int32_t n, int32_t* out) const {
  if (n <= 0) return 0;
  return impl_->Run(impl_->root, block, sel, n, out);
}

bool BatchPredicate::fully_compiled() const { return impl_->fully_compiled; }

// --- BatchCompute -----------------------------------------------------------

struct BatchCompute::Impl {
  struct Node {
    enum class Op {
      kColInt,     // int-family column → int64 lane
      kColF64,     // float column → double lane
      kLitInt,
      kLitF64,
      kYear,       // YEAR(date/int32 column) → int64 lane
      kArithInt,   // exact int64 arithmetic (ArithExpr int mode)
      kArithF64,   // double arithmetic (any float operand, or division)
      kScalarInt,  // fallback Eval().AsInt64()
      kScalarF64,  // fallback Eval().ToDouble()
    };
    Op op;
    ArithOp arith = ArithOp::kAdd;
    int left = -1, right = -1;
    int32_t off = 0;
    bool is32 = false;
    int64_t i64 = 0;
    double f64 = 0;
    const Expr* scalar = nullptr;
  };

  /// The caller's schema (see Compile), not a copy: a copy per compiled
  /// projection column raised the engine's peak RSS.
  const Schema* schema = nullptr;
  ExprPtr expr;
  std::vector<Node> nodes;
  int root = -1;
  bool fully_compiled = true;
  // Bare column reference root (any type, CHAR included) — enables the
  // strided-copy Materialize fast path.
  int root_column = -1;

  int Add(Node n) {
    nodes.push_back(std::move(n));
    return static_cast<int>(nodes.size()) - 1;
  }

  bool IsIntLane(int idx) const {
    switch (nodes[idx].op) {
      case Node::Op::kColInt:
      case Node::Op::kLitInt:
      case Node::Op::kYear:
      case Node::Op::kArithInt:
      case Node::Op::kScalarInt:
        return true;
      default:
        return false;
    }
  }

  int AddScalar(const Expr* e) {
    fully_compiled = false;
    Node n;
    n.op = e->type() == DataType::kFloat64 ? Node::Op::kScalarF64
                                           : Node::Op::kScalarInt;
    n.scalar = e;
    return Add(std::move(n));
  }

  int CompileNum(const Expr* e) {
    ExprShape s = e->Shape();
    switch (s.kind) {
      case ExprShape::Kind::kColumnRef: {
        const ColumnDef& c = schema->column(s.column);
        Node n;
        n.off = schema->offset(s.column);
        if (IsIntFamily(c.type)) {
          n.op = Node::Op::kColInt;
          n.is32 = c.type != DataType::kInt64;
          return Add(std::move(n));
        }
        if (c.type == DataType::kFloat64) {
          n.op = Node::Op::kColF64;
          return Add(std::move(n));
        }
        return AddScalar(e);  // CHAR column in numeric position
      }
      case ExprShape::Kind::kLiteral: {
        const Value& v = *s.literal;
        Node n;
        if (IsIntValue(v)) {
          n.op = Node::Op::kLitInt;
          n.i64 = v.AsInt64();
          return Add(std::move(n));
        }
        if (v.type() == DataType::kFloat64) {
          n.op = Node::Op::kLitF64;
          n.f64 = v.AsFloat64();
          return Add(std::move(n));
        }
        return AddScalar(e);
      }
      case ExprShape::Kind::kYear: {
        int col = AsColumnRef(*s.child);
        if (col >= 0 && (schema->column(col).type == DataType::kDate ||
                         schema->column(col).type == DataType::kInt32)) {
          Node n;
          n.op = Node::Op::kYear;
          n.off = schema->offset(col);
          return Add(std::move(n));
        }
        return AddScalar(e);
      }
      case ExprShape::Kind::kArith: {
        int l = CompileNum(s.left);
        int r = CompileNum(s.right);
        Node n;
        n.arith = s.arith_op;
        n.left = l;
        n.right = r;
        if (e->type() == DataType::kFloat64) {
          n.op = Node::Op::kArithF64;
          return Add(std::move(n));
        }
        // Int mode requires both children on the int lane (guaranteed by
        // ArithExpr's type rule; be defensive about fallback-typed children).
        if (IsIntLane(l) && IsIntLane(r)) {
          n.op = Node::Op::kArithInt;
          return Add(std::move(n));
        }
        return AddScalar(e);
      }
      default:
        return AddScalar(e);
    }
  }

  /// Evaluates node `idx` for rows `sel[0..n)` (`sel == nullptr` = rows
  /// 0..n-1) on lane T: int64_t, for int-lane nodes, or double, where an
  /// int-lane node other than a bare column evaluates exactly and then casts
  /// — identical to `Eval(...).ToDouble()`. Temporaries come from the pool.
  template <typename T>
  void Eval(int idx, const Block& block, const int32_t* sel, int32_t n,
            T* out) const {
    const Node& node = nodes[idx];
    if constexpr (std::is_same_v<T, double>) {
      if (IsIntLane(idx) && node.op != Node::Op::kColInt) {
        Scratch<int64_t> exact(BlockPool::Global(), Lanes(n));
        Eval(idx, block, sel, n, exact.data());
        for (int32_t i = 0; i < n; ++i) out[i] = static_cast<double>(exact[i]);
        return;
      }
    }
    const char* rows = n > 0 ? block.RowAt(0) : nullptr;
    const int32_t stride = block.row_size();
    auto row_ptr = [&](int32_t i) {
      return rows + static_cast<size_t>(sel != nullptr ? sel[i] : i) * stride;
    };
    switch (node.op) {
      case Node::Op::kColInt:  // on the double lane, widened in one pass
        for (int32_t i = 0; i < n; ++i) {
          out[i] = static_cast<T>(LoadInt(row_ptr(i) + node.off, node.is32));
        }
        break;
      case Node::Op::kColF64:
        for (int32_t i = 0; i < n; ++i) {
          double v;
          std::memcpy(&v, row_ptr(i) + node.off, 8);
          out[i] = static_cast<T>(v);
        }
        break;
      case Node::Op::kLitInt:
        for (int32_t i = 0; i < n; ++i) out[i] = static_cast<T>(node.i64);
        break;
      case Node::Op::kLitF64:
        for (int32_t i = 0; i < n; ++i) out[i] = static_cast<T>(node.f64);
        break;
      case Node::Op::kYear:
        for (int32_t i = 0; i < n; ++i) {
          int32_t days;
          std::memcpy(&days, row_ptr(i) + node.off, 4);
          int y, m, d;
          CivilFromDays(days, &y, &m, &d);
          out[i] = y;
        }
        break;
      case Node::Op::kArithInt:
      case Node::Op::kArithF64: {
        // Both children on this lane, then one loop per operator. Division
        // by zero yields 0; on the int64 lane division stays integer.
        Scratch<T> a(BlockPool::Global(), Lanes(n));
        Scratch<T> b(BlockPool::Global(), Lanes(n));
        Eval(node.left, block, sel, n, a.data());
        Eval(node.right, block, sel, n, b.data());
        switch (node.arith) {
          case ArithOp::kAdd:
            for (int32_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
            break;
          case ArithOp::kSub:
            for (int32_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
            break;
          case ArithOp::kMul:
            for (int32_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
            break;
          case ArithOp::kDiv:
            for (int32_t i = 0; i < n; ++i) {
              out[i] = b[i] == 0 ? 0 : a[i] / b[i];
            }
            break;
        }
        break;
      }
      default:  // kScalarInt / kScalarF64: Eval per row
        for (int32_t i = 0; i < n; ++i) {
          const Value v = node.scalar->Eval(*schema, row_ptr(i));
          if constexpr (std::is_same_v<T, int64_t>) {
            out[i] = v.AsInt64();
          } else {
            out[i] = v.ToDouble();
          }
        }
        break;
    }
  }
};

BatchCompute::BatchCompute() : impl_(new Impl) {}
BatchCompute::~BatchCompute() = default;

std::unique_ptr<BatchCompute> BatchCompute::Compile(const Schema& schema,
                                                    ExprPtr expr) {
  std::unique_ptr<BatchCompute> c(new BatchCompute);
  c->impl_->schema = &schema;
  c->impl_->expr = std::move(expr);
  c->impl_->root_column = AsColumnRef(*c->impl_->expr);
  c->impl_->root = c->impl_->CompileNum(c->impl_->expr.get());
  return c;
}

void BatchCompute::EvalDouble(const Block& block, const int32_t* sel,
                              int32_t n, double* out) const {
  if (n <= 0) return;
  impl_->Eval(impl_->root, block, sel, n, out);
}

void BatchCompute::Materialize(const Block& block, const int32_t* sel,
                               int32_t n, const Schema& out_schema,
                               int out_col, char* out_rows) const {
  if (n <= 0) return;
  const int32_t out_stride = out_schema.row_size();
  const int32_t out_off = out_schema.offset(out_col);
  const ColumnDef& dst = out_schema.column(out_col);

  // Bare column of identical type: strided byte copy, with a fixed-size copy
  // per common width instead of a memcpy call of runtime width per row.
  // CHAR columns rely on the SetString invariant (payload NUL-padded to
  // declared width), so the raw bytes equal what strip-then-SetValue would
  // write.
  if (impl_->root_column >= 0) {
    const ColumnDef& src = impl_->schema->column(impl_->root_column);
    if (src.type == dst.type && src.char_width == dst.char_width) {
      const int32_t w = TypeWidth(src.type, src.char_width);
      const char* in_base =
          block.RowAt(0) + impl_->schema->offset(impl_->root_column);
      const int32_t in_stride = block.row_size();
      char* out_base = out_rows + out_off;
      auto copy = [&](auto width) {
        for (int32_t i = 0; i < n; ++i) {
          int32_t r = sel != nullptr ? sel[i] : i;
          std::memcpy(out_base + static_cast<size_t>(i) * out_stride,
                      in_base + static_cast<size_t>(r) * in_stride, width());
        }
      };
      switch (w) {
        case 1: copy([] { return 1; }); break;
        case 2: copy([] { return 2; }); break;
        case 4: copy([] { return 4; }); break;
        case 8: copy([] { return 8; }); break;
        default: copy([w] { return w; }); break;
      }
      return;
    }
  }

  // Typed lanes for numeric destinations: evaluate into pooled scratch, then
  // store at the destination's width. Full scalar fallback otherwise
  // (conversion handled by SetValue, as in per-row `SetValue(Eval)`).
  auto lane = [&](auto zero, auto store) {
    Scratch<decltype(zero)> tmp(BlockPool::Global(), Lanes(n));
    impl_->Eval(impl_->root, block, sel, n, tmp.data());
    for (int32_t i = 0; i < n; ++i) {
      store(out_rows + static_cast<size_t>(i) * out_stride + out_off, tmp[i]);
    }
  };
  const Expr* e = impl_->expr.get();
  if (impl_->fully_compiled && IsIntFamily(dst.type) &&
      impl_->IsIntLane(impl_->root)) {
    if (dst.type == DataType::kInt64) {
      lane(int64_t{}, [](char* p, int64_t v) { std::memcpy(p, &v, 8); });
    } else {
      lane(int64_t{}, [](char* p, int64_t v) {
        const int32_t w = static_cast<int32_t>(v);
        std::memcpy(p, &w, 4);
      });
    }
    return;
  }
  if (impl_->fully_compiled && dst.type == DataType::kFloat64) {
    lane(double{}, [](char* p, double v) { std::memcpy(p, &v, 8); });
    return;
  }
  for (int32_t i = 0; i < n; ++i) {
    int32_t r = sel != nullptr ? sel[i] : i;
    out_schema.SetValue(out_rows + static_cast<size_t>(i) * out_stride,
                        out_col, e->Eval(*impl_->schema, block.RowAt(r)));
  }
}

bool BatchCompute::fully_compiled() const { return impl_->fully_compiled; }

void MaterializeRows(const std::vector<std::unique_ptr<BatchCompute>>& computes,
                     const Block& block, int32_t n, const Schema& out_schema,
                     char* out_rows) {
  for (size_t c = 0; c < computes.size(); ++c) {
    computes[c]->Materialize(block, nullptr, n, out_schema,
                             static_cast<int>(c), out_rows);
  }
}

}  // namespace claims
