// End-to-end tests for the O11+ admin/metrics endpoint: a real COPS-HTTP
// server with stats_export enabled, scraped over the second listener.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/http_server.hpp"
#include "loadgen/http_client.hpp"
#include "nserver/stats.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

using http::CopsHttpServer;
using http::HttpServerConfig;
using nserver::ServerOptions;
using nserver::StatsExport;

// Extracts the value of a single-sample Prometheus metric ("name value\n").
long metric_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtol(text.c_str() + at + needle.size(), nullptr, 10);
}

class AdminFixture : public ::testing::Test {
 protected:
  void start_server(ServerOptions options, HttpServerConfig config = {}) {
    docs_ = std::make_unique<test::TempDir>();
    docs_->write_file("index.html", "<html>home</html>");
    docs_->write_file("a/page.html", std::string(2000, 'p'));
    if (config.doc_root == ".") config.doc_root = docs_->str();
    options.listen_port = 0;
    server_ = std::make_unique<CopsHttpServer>(std::move(options),
                                               std::move(config));
    auto status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    port_ = server_->port();
    admin_port_ = server_->admin_port();
  }

  static ServerOptions admin_options() {
    auto options = CopsHttpServer::default_options();
    options.profiling = true;
    options.stats_export = StatsExport::kAdminHttp;
    options.admin_port = 0;  // kernel-chosen
    return options;
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<test::TempDir> docs_;
  std::unique_ptr<CopsHttpServer> server_;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
};

TEST_F(AdminFixture, DisabledByDefault) {
  auto options = CopsHttpServer::default_options();
  options.profiling = true;
  start_server(options);
  EXPECT_EQ(server_->admin_port(), 0);
}

TEST_F(AdminFixture, ExportRequiresProfiling) {
  auto options = CopsHttpServer::default_options();
  options.profiling = false;
  options.stats_export = StatsExport::kAdminHttp;
  CopsHttpServer server(options, {});
  EXPECT_FALSE(server.start().is_ok());
}

TEST_F(AdminFixture, HealthzRespondsOk) {
  start_server(admin_options());
  ASSERT_NE(admin_port_, 0);
  ASSERT_NE(admin_port_, port_);
  const auto response = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
}

TEST_F(AdminFixture, UnknownPathIs404AndBadMethodIs405) {
  start_server(admin_options());
  EXPECT_NE(test::http_get(admin_port_, "/nope").find("404"),
            std::string::npos);
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", admin_port_));
  client.send_all("POST /stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(client.read_some().find("405"), std::string::npos);
}

TEST_F(AdminFixture, StatsCountersMatchScriptedWorkload) {
  start_server(admin_options());
  constexpr int kRequests = 7;
  for (int i = 0; i < kRequests; ++i) {
    const auto response = test::http_get(port_, "/index.html");
    ASSERT_NE(response.find("200 OK"), std::string::npos);
  }

  const auto response = test::http_get(admin_port_, "/stats");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const auto body = response.substr(response.find("\r\n\r\n") + 4);

  EXPECT_EQ(metric_value(body, "nserver_requests_total"), kRequests);
  EXPECT_EQ(metric_value(body, "nserver_replies_total"), kRequests);
  EXPECT_EQ(metric_value(body, "nserver_connections_accepted_total"),
            kRequests);  // one connection per blocking GET
  EXPECT_GT(metric_value(body, "nserver_bytes_read_total"), 0);
  EXPECT_GT(metric_value(body, "nserver_bytes_sent_total"), 0);
  EXPECT_GE(metric_value(body, "nserver_cache_hits_total"), 1);

  // The stage histogram family is present, with per-stage samples.
  EXPECT_NE(body.find("# TYPE nserver_stage_latency_seconds histogram"),
            std::string::npos);
  for (const char* stage : {"decode", "handle", "encode", "write", "total"}) {
    const std::string count_line = "nserver_stage_latency_seconds_count{stage=\"" +
                                   std::string(stage) + "\"} ";
    const size_t at = body.find(count_line);
    ASSERT_NE(at, std::string::npos) << stage;
    EXPECT_EQ(std::strtol(body.c_str() + at + count_line.size(), nullptr, 10),
              kRequests)
        << stage;
  }
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);
}

// The `le` bounds and cumulative counts of one stage's histogram, in
// exposition order.
struct BucketSeries {
  std::vector<std::string> bounds;
  std::vector<uint64_t> cumulative;
};

BucketSeries stage_buckets(const std::string& text, const std::string& stage) {
  const std::string prefix =
      "nserver_stage_latency_seconds_bucket{stage=\"" + stage + "\",le=\"";
  BucketSeries series;
  for (size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    const size_t le_begin = at + prefix.size();
    const size_t le_end = text.find('"', le_begin);
    series.bounds.push_back(text.substr(le_begin, le_end - le_begin));
    series.cumulative.push_back(
        std::strtoull(text.c_str() + text.find("} ", le_end) + 2, nullptr, 10));
  }
  return series;
}

TEST(StageHistogramExport, BucketBoundsAreFixedAcrossScrapes) {
  // Two scrapes with different bucket fills must expose the same ordered
  // `le` set, or rate()/histogram_quantile() cannot match series across
  // them.
  nserver::StatsSnapshot sparse;
  sparse.counters.stages[0].record(3);
  sparse.counters.stages[0].record(5000);
  nserver::StatsSnapshot dense;
  for (int64_t micros = 1; micros < 2'000'000; micros = micros * 3 + 1) {
    for (auto& stage : dense.counters.stages) stage.record(micros);
  }
  const std::string a = nserver::render_prometheus(sparse);
  const std::string b = nserver::render_prometheus(dense);
  for (size_t s = 0; s < nserver::kStageCount; ++s) {
    const std::string stage = nserver::to_string(static_cast<nserver::Stage>(s));
    const BucketSeries first = stage_buckets(a, stage);
    const BucketSeries second = stage_buckets(b, stage);
    ASSERT_EQ(first.bounds.size(),
              static_cast<size_t>(Histogram::kNumBuckets) + 1)
        << stage;
    EXPECT_EQ(first.bounds, second.bounds) << stage;
    EXPECT_EQ(first.bounds.back(), "+Inf") << stage;
    for (const BucketSeries* series : {&first, &second}) {
      EXPECT_TRUE(std::is_sorted(series->cumulative.begin(),
                                 series->cumulative.end()))
          << stage;
    }
    EXPECT_EQ(first.cumulative.back(), sparse.counters.stages[s].count());
    EXPECT_EQ(second.cumulative.back(), dense.counters.stages[s].count());
  }
}

TEST_F(AdminFixture, StatsJsonAndPerConnectionGauges) {
  start_server(admin_options());
  // A live keep-alive connection with two requests on it.
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port_));
  ASSERT_FALSE(test::http_get(port_, "/index.html", true, &client).empty());
  ASSERT_FALSE(test::http_get(port_, "/a/page.html", true, &client).empty());

  const auto response = test::http_get(admin_port_, "/stats.json");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const auto body = response.substr(response.find("\r\n\r\n") + 4);
  EXPECT_NE(body.find("\"requests\":2"), std::string::npos);
  EXPECT_NE(body.find("\"connections_open\":1"), std::string::npos);
  EXPECT_NE(body.find("\"stages\":"), std::string::npos);
  // The per-connection entry reports its byte/request gauges.
  EXPECT_NE(body.find("\"connections\":[{"), std::string::npos);
  EXPECT_NE(body.find("\"requests\":2}"), std::string::npos);
  EXPECT_NE(body.find("\"peer\":\"127.0.0.1:"), std::string::npos);
}

TEST_F(AdminFixture, LoadgenScrapeMatchesObservedResponses) {
  start_server(admin_options());
  loadgen::ClientConfig config;
  auto addr = net::InetAddress::parse("127.0.0.1", port_);
  ASSERT_TRUE(addr.is_ok());
  config.server = addr.value();
  config.num_clients = 4;
  config.duration = std::chrono::milliseconds(300);
  config.think_time = std::chrono::milliseconds(1);
  config.path_for = [](size_t, std::mt19937&) {
    return std::string("/index.html");
  };
  config.admin_scrape_port = admin_port_;
  const auto stats = loadgen::run_clients(config);
  ASSERT_GT(stats.total_responses, 0u);
  ASSERT_FALSE(stats.admin_stats_text.empty());
  // Every response the generator observed was a reply the server counted
  // (the server may have sent a final reply the generator didn't read).
  const long replies =
      metric_value(stats.admin_stats_text, "nserver_replies_total");
  EXPECT_GE(replies, static_cast<long>(stats.total_responses));
  EXPECT_GE(metric_value(stats.admin_stats_text, "nserver_requests_total"),
            static_cast<long>(stats.total_responses));
}

TEST_F(AdminFixture, HealthzReturns503WhileDraining) {
  // An in-flight request (slowed by decode_delay) holds the drain open long
  // enough to observe the admin endpoint report it: /healthz must flip to
  // 503 "draining" the moment drain() starts, which is what upstream load
  // balancer health checks key off to stop routing new sessions here.
  auto options = admin_options();
  options.processor_threads = 1;
  HttpServerConfig config;
  config.decode_delay = std::chrono::milliseconds(400);
  start_server(options, std::move(config));

  const auto before = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(before.find("200 OK"), std::string::npos);

  test::BlockingClient slow;
  ASSERT_TRUE(slow.connect("127.0.0.1", port_));
  ASSERT_TRUE(slow.send_all(
      "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread drainer([this] {
    EXPECT_TRUE(server_->server().drain(std::chrono::seconds(5)));
  });
  // The drain flag is visible immediately, while the request is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto during = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(during.find("503"), std::string::npos) << during;
  EXPECT_NE(during.find("draining"), std::string::npos) << during;
  drainer.join();

  // The in-flight request was allowed to finish (graceful, not abrupt) —
  // drain() ends in stop(), so the admin endpoint is gone afterwards, but
  // the slow client's response was written before the connection wound down.
  EXPECT_NE(slow.read_some().find("200 OK"), std::string::npos);
}

TEST_F(AdminFixture, OverloadShedReturns503WithRetryAfter) {
  // O9 shed tier: while the processor queue is saturated the server answers
  // with an explicit 503 + Retry-After instead of only suspending accept,
  // and /healthz reports the overload — both visible, countable signals for
  // an upstream balancer's passive ejection.
  auto options = admin_options();
  options.overload_control = true;
  options.overload_shed = true;
  options.queue_high_watermark = 3;
  options.queue_low_watermark = 1;
  options.housekeeping_interval = std::chrono::milliseconds(10);
  options.processor_threads = 1;
  HttpServerConfig config;
  config.decode_delay = std::chrono::milliseconds(10);
  start_server(options, std::move(config));

  // Flood: 8 connections, each with 6 pipelined requests (the last one
  // Connection: close so readers below terminate on EOF).  48 requests at
  // 10ms decode each keep the single processor saturated for ~500ms.
  const std::string keep =
      "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
  const std::string last =
      "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  std::vector<std::unique_ptr<test::BlockingClient>> flooders;
  for (int i = 0; i < 8; ++i) {
    auto client = std::make_unique<test::BlockingClient>();
    ASSERT_TRUE(client->connect("127.0.0.1", port_));
    std::string burst;
    for (int r = 0; r < 5; ++r) burst += keep;
    burst += last;
    ASSERT_TRUE(client->send_all(burst));
    flooders.push_back(std::move(client));
  }

  // Wait for the overload controller to trip…
  bool suspended = false;
  for (int i = 0; i < 2000 && !suspended; ++i) {
    suspended = !server_->server().accepting();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(suspended);
  // …and the admin health check reports it while the backlog lasts.
  const auto health = test::http_get(admin_port_, "/healthz");
  EXPECT_NE(health.find("503"), std::string::npos) << health;
  EXPECT_NE(health.find("overloaded"), std::string::npos) << health;

  // Some pipelined requests were answered with the shed response.
  bool saw_shed_response = false;
  for (auto& client : flooders) {
    const auto raw = client->read_some(0, 5000);
    if (raw.find("503 Service Unavailable") != std::string::npos &&
        raw.find("Retry-After: 1") != std::string::npos) {
      saw_shed_response = true;
    }
  }
  EXPECT_TRUE(saw_shed_response);
  flooders.clear();

  const auto shed = server_->server().profile().requests_shed;
  EXPECT_GT(shed, 0u);
  // The counter is exported through /stats.
  const auto response = test::http_get(admin_port_, "/stats");
  const auto body = response.substr(response.find("\r\n\r\n") + 4);
  EXPECT_EQ(metric_value(body, "nserver_requests_shed_total"),
            static_cast<long>(shed));
}

TEST_F(AdminFixture, AdminSurvivesManyScrapes) {
  start_server(admin_options());
  for (int i = 0; i < 20; ++i) {
    const auto response = test::http_get(admin_port_, "/stats");
    ASSERT_NE(response.find("200 OK"), std::string::npos) << i;
  }
  // The index page lists the endpoints.
  EXPECT_NE(test::http_get(admin_port_, "/").find("/stats"),
            std::string::npos);
}

}  // namespace
}  // namespace cops
