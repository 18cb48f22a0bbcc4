#include "obs/profile/assembler.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "common/string_util.h"

namespace claims {
namespace {

using SendKey = std::tuple<int64_t, int, int, uint64_t>;  // exch, from, to, seq

void AppendJsonStr(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

std::string JsonNum(double v) {
  if (v != v || v > 1e300 || v < -1e300) return "-1";
  return StrFormat("%.6g", v);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// "S1" of a segment instance name such as "S1@n0" or "S1@n0->n2".
std::string_view FragmentOf(std::string_view segment) {
  return segment.substr(0, segment.find('@'));
}

/// Total overlap of [s, e) with the union of the given intervals (sorted by
/// start, possibly overlapping each other).
int64_t UnionOverlap(const std::vector<std::pair<int64_t, int64_t>>& ivals,
                     int64_t s, int64_t e) {
  int64_t covered = 0;
  int64_t cursor = s;
  for (const auto& [a, b] : ivals) {
    if (b <= cursor) continue;
    if (a >= e) break;
    int64_t lo = std::max(a, cursor);
    int64_t hi = std::min(b, e);
    if (hi > lo) covered += hi - lo;
    cursor = std::max(cursor, hi);
    if (cursor >= e) break;
  }
  return covered;
}

}  // namespace

double QError(int64_t est_rows, int64_t actual_rows) {
  const double est = static_cast<double>(std::max<int64_t>(est_rows, 1));
  const double act = static_cast<double>(std::max<int64_t>(actual_rows, 1));
  return std::max(est / act, act / est);
}

int64_t QueryProfile::ActualRows(const ProfOperatorStat& op) const {
  int64_t rows = 0;
  for (const ProfOperatorStat& other : operators) {
    if (other.op_id == op.op_id &&
        FragmentOf(other.segment) == FragmentOf(op.segment)) {
      rows += other.rows;
    }
  }
  return rows;
}

std::shared_ptr<const QueryProfile> AssembleQueryProfile(AssembleInput input) {
  auto profile = std::make_shared<QueryProfile>();
  QueryProfile* p = profile.get();
  p->query_id = input.query_id;
  p->label = std::move(input.label);
  p->start_ns = input.start_ns;
  p->end_ns = std::max(input.end_ns, input.start_ns + 1);
  p->records = std::move(input.records);
  p->audit = std::move(input.audit);
  p->overwritten_records = input.overwritten_records;
  std::sort(p->records.begin(), p->records.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.end_ns < b.end_ns;
            });

  // --- indexes --------------------------------------------------------------
  std::map<std::string, const EventRecord*> seg_spans;
  std::map<std::string, std::vector<const EventRecord*>> blocked_in;
  std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> blocked_out;
  std::map<SendKey, const EventRecord*> sends;
  for (const EventRecord& s : p->records) {
    switch (s.kind) {
      case EventKind::kSegment: {
        const EventRecord*& slot = seg_spans[s.segment];
        if (slot == nullptr || s.dur_ns() > slot->dur_ns()) slot = &s;
        break;
      }
      case EventKind::kBlockedInput:
        blocked_in[s.segment].push_back(&s);
        break;
      case EventKind::kBlockedOutput:
        blocked_out[s.segment].emplace_back(s.start_ns, s.end_ns);
        break;
      case EventKind::kNetSend:
        sends[{s.link.exchange_id, s.link.from_node, s.link.to_node,
               s.link.wire_seq}] = &s;
        break;
      case EventKind::kNetRecv:
        ++p->total_recv_spans;
        break;
      default:
        break;
    }
  }
  for (auto& [seg, spans] : blocked_in) {
    std::sort(spans.begin(), spans.end(),
              [](const EventRecord* a, const EventRecord* b) {
                return a->end_ns < b->end_ns;
              });
  }
  for (const EventRecord& s : p->records) {
    if (s.kind == EventKind::kNetRecv &&
        sends.count({s.link.exchange_id, s.link.from_node, s.link.to_node,
                     s.link.wire_seq})) {
      ++p->linked_recv_spans;
    }
  }

  // --- per-operator inclusive/exclusive attribution -------------------------
  std::map<std::pair<std::string, int>, ProfOperatorStat> ops;
  for (const EventRecord& s : p->records) {
    if (s.kind != EventKind::kOperator || s.op_id < 0) continue;
    ProfOperatorStat& st = ops[{s.segment, s.op_id}];
    st.name = s.name;
    st.segment = s.segment;
    st.node = s.node;
    st.op_id = s.op_id;
    st.parent_op = s.parent_op;
    st.inclusive_ns += s.busy_ns > 0 ? s.busy_ns : s.dur_ns();
    st.calls += s.bytes;  // kOperator spans carry the Next() call count here
    st.rows += s.tuples;
    for (int a = 0; a < s.num_args; ++a) {
      if (std::string_view(s.args[a].key) == "est_rows") {
        st.est_rows = static_cast<int64_t>(s.args[a].num);
      }
    }
  }
  std::map<std::pair<std::string, int>, int64_t> child_sum;
  for (const auto& [key, st] : ops) {
    if (st.parent_op >= 0) {
      child_sum[{st.segment, st.parent_op}] += st.inclusive_ns;
    }
  }
  for (auto& [key, st] : ops) {
    auto it = child_sum.find(key);
    int64_t children = it == child_sum.end() ? 0 : it->second;
    st.exclusive_ns = std::max<int64_t>(0, st.inclusive_ns - children);
    p->operator_exclusive_sum_ns += st.exclusive_ns;
    if (st.parent_op < 0) p->operator_total_ns += st.inclusive_ns;
    p->operators.push_back(st);
  }

  // --- critical path: backward time-partition walk --------------------------
  const int64_t q0 = p->start_ns;
  const int64_t q1 = p->end_ns;
  std::vector<ProfPathStep> path;  // built backward, reversed at the end
  auto add_step = [&](const char* what, std::string segment,
                      std::string detail, int64_t s, int64_t e) {
    s = std::max(s, q0);
    e = std::min(e, q1);
    if (e <= s) return;
    ProfPathStep step;
    step.what = what;
    step.segment = std::move(segment);
    step.detail = std::move(detail);
    step.start_ns = s;
    step.end_ns = e;
    step.pct = static_cast<double>(e - s) / static_cast<double>(q1 - q0);
    path.push_back(std::move(step));
  };
  auto compute_detail = [&](const std::string& seg, int64_t s,
                            int64_t e) -> std::string {
    auto it = blocked_out.find(seg);
    if (it == blocked_out.end() || e <= s) return std::string();
    auto ivals = it->second;
    std::sort(ivals.begin(), ivals.end());
    int64_t bp = UnionOverlap(ivals, s, e);
    double frac = static_cast<double>(bp) / static_cast<double>(e - s);
    if (frac < 0.05) return std::string();
    return StrFormat("backpressured %.0f%% of interval", frac * 100);
  };

  const EventRecord* cur = nullptr;
  for (const auto& [seg, span] : seg_spans) {
    if (cur == nullptr || span->end_ns > cur->end_ns) cur = span;
  }
  if (cur != nullptr) {
    int64_t t = std::min(cur->end_ns, q1);
    add_step("result-gather", cur->segment, "", t, q1);
    for (int guard = 0; guard < 512 && cur != nullptr; ++guard) {
      // Latest starvation wait of this segment ending at or before t.
      const EventRecord* b = nullptr;
      auto bit = blocked_in.find(cur->segment);
      if (bit != blocked_in.end()) {
        for (auto rit = bit->second.rbegin(); rit != bit->second.rend();
             ++rit) {
          if ((*rit)->end_ns <= t && (*rit)->end_ns > cur->start_ns) {
            b = *rit;
            break;
          }
        }
      }
      if (b == nullptr) {
        add_step("compute", cur->segment,
                 compute_detail(cur->segment, cur->start_ns, t),
                 cur->start_ns, t);
        add_step("startup", cur->segment, "", q0, cur->start_ns);
        break;
      }
      add_step("compute", cur->segment,
               compute_detail(cur->segment, b->end_ns, t), b->end_ns, t);
      const EventRecord* send = nullptr;
      if (b->link.wire_seq != 0) {
        auto sit = sends.find({b->link.exchange_id, b->link.from_node,
                               b->link.to_node, b->link.wire_seq});
        if (sit != sends.end()) send = sit->second;
      }
      if (send != nullptr && send->start_ns < b->end_ns) {
        add_step("exchange", send->segment + "->" + cur->segment,
                 StrFormat("exchange %lld, seq %llu",
                           static_cast<long long>(b->link.exchange_id),
                           static_cast<unsigned long long>(b->link.wire_seq)),
                 send->start_ns, b->end_ns);
        auto pit = seg_spans.find(send->segment);
        if (pit == seg_spans.end()) {
          add_step("startup", send->segment, "", q0, send->start_ns);
          break;
        }
        cur = pit->second;
        t = send->start_ns;
      } else {
        add_step("blocked-input", cur->segment,
                 StrFormat("exchange %lld, unresolved",
                           static_cast<long long>(b->link.exchange_id)),
                 b->start_ns, b->end_ns);
        t = b->start_ns;
      }
    }
  }
  std::reverse(path.begin(), path.end());
  int64_t attributed = 0;
  for (const ProfPathStep& step : path) attributed += step.dur_ns();
  p->critical_path = std::move(path);
  p->critical_path_coverage =
      std::min(1.0, static_cast<double>(attributed) /
                        static_cast<double>(q1 - q0));
  return profile;
}

// --- rendering --------------------------------------------------------------

namespace {

/// `value` right-aligned in `width` columns, or an en dash (one column,
/// three bytes) where the planner computed no estimate.
std::string EstimateCell(int64_t est_rows, const std::string& value,
                         int width) {
  if (est_rows < 0) return std::string(width - 1, ' ') + "\u2013";
  return StrFormat("%*s", width, value.c_str());
}

/// One timeline row per segment instance: '#' running, '.' starved,
/// 'o' backpressured, ' ' outside the segment's lifetime.
std::string AsciiTimeline(const QueryProfile& p, int width) {
  std::map<std::string, const EventRecord*> segs;
  std::map<std::string, std::vector<const EventRecord*>> waits;
  for (const EventRecord& s : p.records) {
    if (s.kind == EventKind::kSegment) {
      const EventRecord*& slot = segs[s.segment];
      if (slot == nullptr || s.dur_ns() > slot->dur_ns()) slot = &s;
    } else if (s.kind == EventKind::kBlockedInput ||
               s.kind == EventKind::kBlockedOutput) {
      waits[s.segment].push_back(&s);
    }
  }
  if (segs.empty()) return std::string();
  const double span_ns = static_cast<double>(p.wall_ns());
  std::string out = StrFormat(
      "timeline [0, %.3f ms], %d cols ('#'=run '.'=blocked-in "
      "'o'=blocked-out):\n",
      Ms(p.wall_ns()), width);
  for (const auto& [name, seg] : segs) {
    std::string row(static_cast<size_t>(width), ' ');
    auto col = [&](int64_t ns) {
      double f = static_cast<double>(ns - p.start_ns) / span_ns;
      int c = static_cast<int>(f * width);
      return std::min(std::max(c, 0), width - 1);
    };
    for (int c = col(seg->start_ns); c <= col(seg->end_ns - 1); ++c) {
      row[static_cast<size_t>(c)] = '#';
    }
    auto wit = waits.find(name);
    if (wit != waits.end()) {
      for (const EventRecord* w : wit->second) {
        char mark = w->kind == EventKind::kBlockedInput ? '.' : 'o';
        for (int c = col(w->start_ns); c <= col(w->end_ns - 1); ++c) {
          row[static_cast<size_t>(c)] = mark;
        }
      }
    }
    out += StrFormat("  %-10s |%s|\n", name.c_str(), row.c_str());
  }
  return out;
}

}  // namespace

std::string QueryProfile::ToText() const {
  std::string out = StrFormat(
      "profile q%llu (%s): wall %.3f ms, %zu records (%lld overwritten), "
      "critical path %.1f%% of wall\n",
      static_cast<unsigned long long>(query_id), label.c_str(), Ms(wall_ns()),
      records.size(), static_cast<long long>(overwritten_records),
      critical_path_coverage * 100);
  out += "critical path (backward from completion):\n";
  for (const ProfPathStep& s : critical_path) {
    out += StrFormat("  %5.1f%%  %-13s %-18s [%9.3f, %9.3f) ms  %s\n",
                     s.pct * 100, s.what.c_str(), s.segment.c_str(),
                     Ms(s.start_ns - start_ns), Ms(s.end_ns - start_ns),
                     s.detail.c_str());
  }
  out += AsciiTimeline(*this, 64);
  if (!operators.empty()) {
    out += StrFormat(
        "operators (Σ exclusive %.3f ms of %.3f ms total operator time):\n",
        Ms(operator_exclusive_sum_ns), Ms(operator_total_ns));
    out += "  segment    op  parent  name                incl-ms   excl-ms"
           "      calls       rows   est-rows   act-rows    q-err\n";
    for (const ProfOperatorStat& op : operators) {
      const int64_t act = ActualRows(op);
      out += StrFormat(
          "  %-9s %3d  %6d  %-18s %9.3f %9.3f %10lld %10lld %s %10lld %s\n",
          op.segment.c_str(), op.op_id, op.parent_op, op.name.c_str(),
          Ms(op.inclusive_ns), Ms(op.exclusive_ns),
          static_cast<long long>(op.calls), static_cast<long long>(op.rows),
          EstimateCell(op.est_rows, StrFormat("%lld", static_cast<long long>(
                                                          op.est_rows)),
                       10)
              .c_str(),
          static_cast<long long>(act),
          EstimateCell(op.est_rows,
                       StrFormat("%.2f", QError(op.est_rows, act)), 8)
              .c_str());
    }
  }
  if (!audit.empty()) {
    size_t show = std::min<size_t>(audit.size(), 8);
    out += StrFormat("scheduler decision audit (last %zu of %zu ticks):\n",
                     show, audit.size());
    for (size_t i = audit.size() - show; i < audit.size(); ++i) {
      const SchedTickAudit& a = audit[i];
      out += StrFormat("  tick %lld node %d t=%.3f ms λ_local=%s λ_global=%s\n",
                       static_cast<long long>(a.tick), a.node,
                       Ms(a.ts_ns - start_ns), JsonNum(a.lambda_local).c_str(),
                       JsonNum(a.lambda_global).c_str());
      for (const SchedTickAudit::Segment& s : a.segments) {
        out += StrFormat(
            "    %-10s par=%d rate=%s R=%s predicted=%s "
            "blocked(in=%.0f%%, out=%.0f%%) action=%s\n",
            s.name.c_str(), s.parallelism, JsonNum(s.rate).c_str(),
            JsonNum(s.normalized_rate).c_str(),
            JsonNum(s.predicted_rate).c_str(), s.blocked_in * 100,
            s.blocked_out * 100, s.action);
      }
    }
  }
  return out;
}

std::string QueryProfile::Summary() const {
  std::string out = StrFormat(
      "profile: critical path %.1f%% of %.3f ms wall; "
      "operator time %.3f ms (exclusive Σ %.3f ms); "
      "%lld/%lld recv batches causally linked\n",
      critical_path_coverage * 100, Ms(wall_ns()), Ms(operator_total_ns),
      Ms(operator_exclusive_sum_ns),
      static_cast<long long>(linked_recv_spans),
      static_cast<long long>(total_recv_spans));
  // Top-3 steps by duration tell where the time went at a glance.
  std::vector<const ProfPathStep*> top;
  for (const ProfPathStep& s : critical_path) top.push_back(&s);
  std::sort(top.begin(), top.end(),
            [](const ProfPathStep* a, const ProfPathStep* b) {
              return a->dur_ns() > b->dur_ns();
            });
  for (size_t i = 0; i < top.size() && i < 3; ++i) {
    out += StrFormat("  %5.1f%%  %s %s %s\n", top[i]->pct * 100,
                     top[i]->what.c_str(), top[i]->segment.c_str(),
                     top[i]->detail.c_str());
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = StrFormat(
      "{\"query_id\":%llu,\"label\":",
      static_cast<unsigned long long>(query_id));
  AppendJsonStr(&out, label);
  out += StrFormat(
      ",\"start_ns\":%lld,\"end_ns\":%lld,\"wall_ns\":%lld,"
      "\"record_count\":%zu,\"overwritten_records\":%lld,"
      "\"linked_recv_spans\":%lld,\"total_recv_spans\":%lld,"
      "\"operator_total_ns\":%lld,\"operator_exclusive_sum_ns\":%lld,"
      "\"critical_path\":{\"coverage\":%s,\"steps\":[",
      static_cast<long long>(start_ns), static_cast<long long>(end_ns),
      static_cast<long long>(wall_ns()), records.size(),
      static_cast<long long>(overwritten_records),
      static_cast<long long>(linked_recv_spans),
      static_cast<long long>(total_recv_spans),
      static_cast<long long>(operator_total_ns),
      static_cast<long long>(operator_exclusive_sum_ns),
      JsonNum(critical_path_coverage).c_str());
  bool first = true;
  for (const ProfPathStep& s : critical_path) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"what\":";
    AppendJsonStr(&out, s.what);
    out += ",\"segment\":";
    AppendJsonStr(&out, s.segment);
    out += ",\"detail\":";
    AppendJsonStr(&out, s.detail);
    out += StrFormat(",\"start_ns\":%lld,\"end_ns\":%lld,\"pct\":%s}",
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), JsonNum(s.pct).c_str());
  }
  out += "]},\"operators\":[";
  first = true;
  for (const ProfOperatorStat& op : operators) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"segment\":";
    AppendJsonStr(&out, op.segment);
    out += ",\"name\":";
    AppendJsonStr(&out, op.name);
    const int64_t act = ActualRows(op);
    out += StrFormat(
        ",\"node\":%d,\"op_id\":%d,\"parent_op\":%d,\"inclusive_ns\":%lld,"
        "\"exclusive_ns\":%lld,\"calls\":%lld,\"rows\":%lld,"
        "\"est_rows\":%s,\"act_rows\":%lld,\"q_error\":%s}",
        op.node, op.op_id, op.parent_op,
        static_cast<long long>(op.inclusive_ns),
        static_cast<long long>(op.exclusive_ns),
        static_cast<long long>(op.calls), static_cast<long long>(op.rows),
        op.est_rows < 0
            ? "null"
            : StrFormat("%lld", static_cast<long long>(op.est_rows)).c_str(),
        static_cast<long long>(act),
        op.est_rows < 0 ? "null" : JsonNum(QError(op.est_rows, act)).c_str());
  }
  out += "],\"audit\":[";
  first = true;
  for (const SchedTickAudit& a : audit) {
    if (!first) out.push_back(',');
    first = false;
    out += StrFormat(
        "{\"tick\":%lld,\"node\":%d,\"ts_ns\":%lld,\"lambda_local\":%s,"
        "\"lambda_global\":%s,\"segments\":[",
        static_cast<long long>(a.tick), a.node,
        static_cast<long long>(a.ts_ns), JsonNum(a.lambda_local).c_str(),
        JsonNum(a.lambda_global).c_str());
    bool sfirst = true;
    for (const SchedTickAudit::Segment& s : a.segments) {
      if (!sfirst) out.push_back(',');
      sfirst = false;
      out += "{\"name\":";
      AppendJsonStr(&out, s.name);
      out += StrFormat(
          ",\"query_id\":%llu,\"parallelism\":%d,\"rate\":%s,"
          "\"normalized_rate\":%s,\"predicted_rate\":%s,\"blocked_in\":%s,"
          "\"blocked_out\":%s,\"action\":",
          static_cast<unsigned long long>(s.query_id), s.parallelism,
          JsonNum(s.rate).c_str(), JsonNum(s.normalized_rate).c_str(),
          JsonNum(s.predicted_rate).c_str(), JsonNum(s.blocked_in).c_str(),
          JsonNum(s.blocked_out).c_str());
      AppendJsonStr(&out, s.action);
      out.push_back('}');
    }
    out += "]}";
  }
  out += "],\"timeline\":";
  AppendJsonStr(&out, AsciiTimeline(*this, 64));
  out.push_back('}');
  return out;
}

std::string QueryProfile::ToPerfettoJson() const {
  return ChromeTraceJson(records);
}

}  // namespace claims
