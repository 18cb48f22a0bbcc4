#include "obs/monitor_server.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics_registry.h"
#include "obs/profile/assembler.h"
#include "obs/prometheus.h"
#include "obs/timeseries/dashboard_html.h"
#include "obs/timeseries/timeseries.h"
#include "obs/recorder.h"

namespace claims {
namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = StrFormat(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status, ReasonPhrase(response.status),
      response.content_type.c_str(), response.body.size());
  out += response.body;
  return out;
}

/// Parses the request head plus whatever body prefix was already read past
/// the header terminator. False on malformed input.
bool ParseRequest(const std::string& raw, HttpRequest* request,
                  size_t* content_length) {
  size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) return false;
  std::vector<std::string> parts = Split(raw.substr(0, line_end), ' ');
  if (parts.size() != 3 || parts[2].rfind("HTTP/1.", 0) != 0) return false;
  request->method = ToUpper(parts[0]);
  std::string target = parts[1];
  size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    request->path = target;
  } else {
    request->path = target.substr(0, qmark);
    request->query = target.substr(qmark + 1);
  }
  if (request->path.empty() || request->path[0] != '/') return false;

  *content_length = 0;
  size_t header_end = raw.find("\r\n\r\n");
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = raw.find("\r\n", pos);
    std::string_view line(raw.data() + pos, eol - pos);
    size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        EqualsIgnoreCase(Trim(line.substr(0, colon)), "content-length")) {
      *content_length = static_cast<size_t>(
          std::atoll(std::string(Trim(line.substr(colon + 1))).c_str()));
    }
    pos = eol + 2;
  }
  request->body = raw.substr(header_end + 4);
  return true;
}

/// Value of `key` in a raw "a=1&b=2" query string ("" when absent). No
/// percent-decoding: monitor query values are metric-name substrings and
/// numbers.
std::string QueryParam(const std::string& query, const std::string& key) {
  for (const std::string& piece : Split(query, '&')) {
    size_t eq = piece.find('=');
    if (eq == std::string::npos) continue;
    if (piece.compare(0, eq, key) == 0) return piece.substr(eq + 1);
  }
  return "";
}

}  // namespace

MonitorOptions MonitorOptions::FromEnv(MonitorOptions base) {
  const char* port = std::getenv("CLAIMS_MONITOR_PORT");
  if (port != nullptr && port[0] != '\0') {
    base.enabled = true;
    base.port = std::atoi(port);
  }
  return base;
}

MonitorServer::MonitorServer(MonitorOptions options)
    : options_(std::move(options)),
      requests_metric_(MetricsRegistry::Global()->counter("monitor.requests")),
      errors_metric_(
          MetricsRegistry::Global()->counter("monitor.http_errors")),
      scrape_ns_metric_(
          MetricsRegistry::Global()->histogram("obs.scrape_ns")) {
  RegisterBuiltinRoutes();
}

MonitorServer::~MonitorServer() { Stop(); }

void MonitorServer::RegisterBuiltinRoutes() {
  AddHandler("GET", "/healthz", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  AddHandler("GET", "/metrics", [this](const HttpRequest&) {
    const int64_t t0 = SteadyClock::Default()->NowNanos();
    HttpResponse response;
    response.content_type = kPrometheusContentType;
    {
      std::lock_guard<std::mutex> lock(scrape_mu_);
      PrometheusSnapshotTo(*MetricsRegistry::Global(), &scrape_scratch_);
      response.body = scrape_scratch_;
    }
    scrape_ns_metric_->Record(SteadyClock::Default()->NowNanos() - t0);
    return response;
  });
  AddHandler("GET", "/timeseries", [](const HttpRequest& request) {
    MetricSampler* sampler = MetricSampler::Default();
    if (sampler == nullptr) {
      return HttpResponse::Json(
          "{\"enabled\":false,\"series\":[],\"annotations\":[]}");
    }
    const std::string metric = QueryParam(request.query, "metric");
    int64_t window_ns = 0;
    const std::string window_s = QueryParam(request.query, "window");
    if (!window_s.empty()) {
      window_ns = static_cast<int64_t>(std::atof(window_s.c_str()) * 1e9);
    }
    if (QueryParam(request.query, "format") == "text") {
      return HttpResponse{200, "text/plain; charset=utf-8",
                          sampler->ToText(metric, window_ns)};
    }
    return HttpResponse::Json(sampler->ToJson(metric, window_ns));
  });
  AddHandler("GET", "/dash", [](const HttpRequest&) {
    return HttpResponse{200, "text/html; charset=utf-8", kDashboardHtml};
  });
  AddHandler("GET", "/profile", [](const HttpRequest&) {
    std::string body = "{\"profiles\":[";
    bool first = true;
    for (const auto& p : EventRecorder::Global()->ListProfiles()) {
      if (!first) body.push_back(',');
      first = false;
      body += StrFormat(
          "{\"query_id\":%llu,\"label\":\"%s\",\"wall_ns\":%lld,"
          "\"critical_path_coverage\":%.6g}",
          static_cast<unsigned long long>(p->query_id),
          JsonEscape(p->label).c_str(), static_cast<long long>(p->wall_ns()),
          p->critical_path_coverage);
    }
    body += "]}";
    return HttpResponse::Json(std::move(body));
  });
  AddPrefixHandler("GET", "/profile/", [](const HttpRequest& request) {
    const std::string id_text = request.path.substr(strlen("/profile/"));
    char* end = nullptr;
    uint64_t id = std::strtoull(id_text.c_str(), &end, 10);
    if (end == id_text.c_str() || *end != '\0') {
      return HttpResponse{400, "text/plain; charset=utf-8",
                          "bad query id: " + id_text + "\n"};
    }
    auto profile = EventRecorder::Global()->GetProfile(id);
    if (profile == nullptr) {
      return HttpResponse::NotFound("no profile for query " + id_text + "\n");
    }
    if (request.query == "format=text") {
      return HttpResponse{200, "text/plain; charset=utf-8",
                          profile->ToText()};
    }
    if (request.query == "format=perfetto") {
      return HttpResponse::Json(profile->ToPerfettoJson());
    }
    return HttpResponse::Json(profile->ToJson());
  });
  AddHandler("POST", "/flight-recorder/dump", [](const HttpRequest&) {
    return HttpResponse::Json(EventRecorder::Global()->ToChromeJson());
  });
  AddHandler("GET", "/", [this](const HttpRequest&) {
    std::string body = "claims monitor\n\nroutes:\n";
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (const auto& [key, handler] : handlers_) {
      body += StrFormat("  %-4s %s\n", key.first.c_str(), key.second.c_str());
    }
    for (const auto& [key, handler] : prefix_handlers_) {
      body += StrFormat("  %-4s %s*\n", key.first.c_str(), key.second.c_str());
    }
    return HttpResponse{200, "text/plain; charset=utf-8", std::move(body)};
  });
}

Status MonitorServer::Start() {
  if (!options_.enabled) return Status::OK();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("monitor server already running");
  }
  CLAIMS_RETURN_IF_ERROR(
      listener_.Listen(options_.bind_address, options_.port));
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptorMain(); });
  CLAIMS_LOG(Info) << "monitor listening on http://" << options_.bind_address
                   << ":" << listener_.port();
  return Status::OK();
}

void MonitorServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  running_.store(false, std::memory_order_release);
  listener_.Close();  // wakes the blocked accept()
  if (acceptor_.joinable()) acceptor_.join();
}

bool MonitorServer::running() const {
  return running_.load(std::memory_order_acquire);
}

int MonitorServer::port() const {
  return running() ? listener_.port() : -1;
}

void MonitorServer::AddHandler(const std::string& method,
                               const std::string& path, Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[{ToUpper(method), path}] = std::move(handler);
}

void MonitorServer::RemoveHandler(const std::string& method,
                                  const std::string& path) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_.erase({ToUpper(method), path});
}

void MonitorServer::AddPrefixHandler(const std::string& method,
                                     const std::string& prefix,
                                     Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  prefix_handlers_[{ToUpper(method), prefix}] = std::move(handler);
}

HttpResponse MonitorServer::Dispatch(const HttpRequest& request) const {
  Handler handler;
  bool path_known = false;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    auto it = handlers_.find({request.method, request.path});
    if (it != handlers_.end()) {
      handler = it->second;
    } else {
      // Longest matching prefix route for this method.
      size_t best_len = 0;
      for (const auto& [key, h] : prefix_handlers_) {
        if (request.path.rfind(key.second, 0) != 0) continue;
        if (key.first == request.method) {
          if (key.second.size() >= best_len) {
            best_len = key.second.size();
            handler = h;
          }
        } else {
          path_known = true;
        }
      }
    }
    if (handler == nullptr && !path_known) {
      for (const auto& [key, h] : handlers_) {
        if (key.second == request.path) {
          path_known = true;
          break;
        }
      }
    }
  }
  if (handler == nullptr) {
    return path_known
               ? HttpResponse{405, "text/plain; charset=utf-8",
                              "method not allowed\n"}
               : HttpResponse::NotFound("no route " + request.path + "\n");
  }
  return handler(request);
}

void MonitorServer::AcceptorMain() {
  for (;;) {
    Result<int> client = listener_.Accept();
    if (!client.ok()) {
      if (!running_.load(std::memory_order_acquire)) return;
      // Transient accept error (e.g. aborted connection): keep serving.
      continue;
    }
    ServeConnection(client.value());
    CloseSocket(client.value());
    if (!running_.load(std::memory_order_acquire)) return;
  }
}

void MonitorServer::ServeConnection(int fd) {
  requests_metric_->Add();
  std::string raw;
  int64_t past_header = ReadUntilHeaderEnd(fd, &raw, options_.max_request_bytes);
  HttpRequest request;
  size_t content_length = 0;
  if (past_header < 0 || !ParseRequest(raw, &request, &content_length)) {
    errors_metric_->Add();
    HttpResponse bad{400, "text/plain; charset=utf-8", "bad request\n"};
    std::string wire = SerializeResponse(bad);
    WriteFully(fd, wire.data(), wire.size());
    return;
  }
  if (content_length > options_.max_request_bytes) {
    errors_metric_->Add();
    HttpResponse big{413, "text/plain; charset=utf-8", "body too large\n"};
    std::string wire = SerializeResponse(big);
    WriteFully(fd, wire.data(), wire.size());
    return;
  }
  if (request.body.size() < content_length &&
      !ReadExact(fd, &request.body, content_length - request.body.size())) {
    errors_metric_->Add();
    return;  // peer hung up mid-body; nothing to answer
  }
  HttpResponse response = Dispatch(request);
  if (response.status >= 400) errors_metric_->Add();
  std::string wire = SerializeResponse(response);
  WriteFully(fd, wire.data(), wire.size());
}

}  // namespace claims
