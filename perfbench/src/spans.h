#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory spans recorded by the benchmark around its own calls into the
// engine's modules. A span's layer is its name up to the first dot
// ("cluster.execute" -> "cluster"); the per-query root span is "query".

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int tid = 0;  ///< client thread, or the probe thread
  std::vector<std::pair<std::string, std::string>> args;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

std::string LayerOf(const std::string& span_name);

/// Duration of `span` minus the part of its interval that `children` cover
/// (overlapping children count once; parts outside the span do not count).
int64_t SelfTimeNs(const Span& span, const std::vector<const Span*>& children);

/// Σ self time per layer over a span forest, using each span's recorded
/// parent to find its children.
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans);

/// Chrome trace_event JSON ({"traceEvents":[...]}) with one complete ("X")
/// event per span, ts/dur in microseconds.
std::string ToChromeJson(const std::vector<Span>& spans);

/// Thread-safe span sink.
class SpanRecorder {
 public:
  /// Stores the span under a fresh id (overwriting span.id) and returns it.
  uint64_t Add(Span span);
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  uint64_t next_id_ = 1;     ///< guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
