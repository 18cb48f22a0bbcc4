#include "obs/monitor_server.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "net/socket_util.h"
#include "obs/metrics_registry.h"
#include "obs/recorder.h"

namespace claims {
namespace {

/// Scrapes `target` off a running server; fails the test on transport error.
std::string Fetch(const MonitorServer& server, const std::string& method,
                  const std::string& target, int* status_out,
                  const std::string& body = "") {
  Result<std::string> raw =
      HttpRoundTrip("127.0.0.1", server.port(), method, target, body);
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  if (!raw.ok()) {
    *status_out = -1;
    return "";
  }
  std::string response_body;
  *status_out = ParseHttpResponse(raw.value(), &response_body);
  return response_body;
}

TEST(MonitorOptionsTest, DisabledByDefault) {
  MonitorOptions options;
  EXPECT_FALSE(options.enabled);
  MonitorServer server(options);
  EXPECT_TRUE(server.Start().ok());  // no-op
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), -1);
}

TEST(MonitorOptionsTest, FromEnvEnables) {
  ::setenv("CLAIMS_MONITOR_PORT", "0", 1);
  MonitorOptions options = MonitorOptions::FromEnv();
  ::unsetenv("CLAIMS_MONITOR_PORT");
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.port, 0);
  EXPECT_EQ(options.bind_address, "127.0.0.1");

  EXPECT_FALSE(MonitorOptions::FromEnv().enabled);
}

class MonitorServerTest : public ::testing::Test {
 protected:
  MonitorServerTest() : server_(EnabledOptions()) {
    Status s = server_.Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  static MonitorOptions EnabledOptions() {
    MonitorOptions options;
    options.enabled = true;
    options.port = 0;  // ephemeral
    return options;
  }

  MonitorServer server_;
};

TEST_F(MonitorServerTest, HealthzAnswersOk) {
  ASSERT_TRUE(server_.running());
  ASSERT_GT(server_.port(), 0);
  int status = 0;
  std::string body = Fetch(server_, "GET", "/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
}

TEST_F(MonitorServerTest, MetricsServesPrometheusExposition) {
  MetricsRegistry::Global()->counter("monitor_test.scraped")->Add(7);
  int status = 0;
  std::string body = Fetch(server_, "GET", "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("# TYPE monitor_test_scraped counter"),
            std::string::npos);
  EXPECT_NE(body.find("monitor_test_scraped 7"), std::string::npos);
  // The server's own request counter is registered and exposed too.
  EXPECT_NE(body.find("monitor_requests"), std::string::npos);
}

TEST_F(MonitorServerTest, UnknownPathIs404KnownPathWrongMethodIs405) {
  int status = 0;
  Fetch(server_, "GET", "/no/such/route", &status);
  EXPECT_EQ(status, 404);
  Fetch(server_, "DELETE", "/healthz", &status);
  EXPECT_EQ(status, 405);
}

TEST_F(MonitorServerTest, FlightRecorderDumpIsChromeJson) {
  EventRecorder* rec = EventRecorder::Global();
  rec->Clear();
  rec->Enable();
  rec->Instant(123, 0, "hello-from-monitor-test");
  int status = 0;
  std::string body = Fetch(server_, "POST", "/flight-recorder/dump", &status);
  rec->Disable();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(body.find("hello-from-monitor-test"), std::string::npos);
}

TEST_F(MonitorServerTest, CustomHandlersRegisterAndRemove) {
  server_.AddHandler("GET", "/custom", [](const HttpRequest& request) {
    return HttpResponse{200, "text/plain; charset=utf-8",
                        "query=" + request.query + "\n"};
  });
  int status = 0;
  std::string body = Fetch(server_, "GET", "/custom?limit=3", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "query=limit=3\n");

  server_.RemoveHandler("GET", "/custom");
  Fetch(server_, "GET", "/custom", &status);
  EXPECT_EQ(status, 404);
}

TEST_F(MonitorServerTest, RouteIndexListsRoutes) {
  int status = 0;
  std::string body = Fetch(server_, "GET", "/", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("/metrics"), std::string::npos);
  EXPECT_NE(body.find("/healthz"), std::string::npos);
  EXPECT_NE(body.find("/flight-recorder/dump"), std::string::npos);
}

TEST_F(MonitorServerTest, MalformedRequestGets400) {
  // Raw garbage instead of an HTTP request line.
  Result<std::string> raw =
      HttpRoundTrip("127.0.0.1", server_.port(), "NOT A REQUEST", "/");
  // The server answers 400 (round trip itself succeeds at transport level)
  // or the peer closes early; either way the server must survive ...
  if (raw.ok()) {
    std::string body;
    EXPECT_EQ(ParseHttpResponse(raw.value(), &body), 400);
  }
  // ... and keep serving.
  int status = 0;
  Fetch(server_, "GET", "/healthz", &status);
  EXPECT_EQ(status, 200);
}

TEST_F(MonitorServerTest, StopIsIdempotentAndJoins) {
  ASSERT_TRUE(server_.running());
  server_.Stop();
  EXPECT_FALSE(server_.running());
  server_.Stop();  // second stop is a no-op
}

TEST(MonitorServerDispatchTest, WorksWithoutSockets) {
  MonitorServer server;  // disabled: no thread, no socket
  HttpRequest request;
  request.method = "GET";
  request.path = "/healthz";
  HttpResponse response = server.Dispatch(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

}  // namespace
}  // namespace claims
