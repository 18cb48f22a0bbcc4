#include "src/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

int64_t SelfTimeNs(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span* c : children) {
    int64_t lo = std::max(c->start_ns, span.start_ns);
    int64_t hi = std::min(c->end_ns, span.end_ns);
    if (lo < hi) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0;
  int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : cover) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration_ns() - covered;
}

std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, int64_t> by_layer;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    by_layer[LayerOf(s.name)] +=
        it == children.end() ? s.duration_ns() : SelfTimeNs(s, it->second);
  }
  return by_layer;
}

std::string ToChromeJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Span& s : spans) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,",
                  s.tid, s.start_ns / 1e3, s.duration_ns() / 1e3);
    out += buf;
    out += "\"name\":\"" + JsonEscape(s.name) + "\",\"cat\":\"" +
           JsonEscape(LayerOf(s.name)) + "\",\"args\":{";
    std::snprintf(buf, sizeof(buf), "\"span_id\":%llu,\"parent_id\":%llu",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
    for (const auto& [key, value] : s.args) {
      out += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

uint64_t SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace perfbench
