// Deterministic chaos tests for the cluster resilience layer: a LoadBalancer
// plus several full COPS-HTTP backends sharing one SimEngine, with
// per-endpoint faults (kill_port / revive_port / stall_connects) injected at
// scripted virtual instants.  Every scenario replays bit-identically per
// seed — the breaker/health transitions emitted through the balancer's
// event_listener are folded into the engine trace, so "the breaker opened,
// went half-open, and closed" is an assertion on a reproducible event log,
// not on wall-clock luck (the model-based-testing discipline from
// TESTING.md applied to the cluster control plane).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/load_balancer.hpp"
#include "http/http_server.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops::cluster {
namespace {

using http::CopsHttpServer;
using http::HttpServerConfig;
using simnet::SimClient;
using simnet::SimEngine;

constexpr uint16_t kBalancerPort = 8100;
constexpr uint16_t kBackendPortBase = 8101;  // data ports 8101, 8102, ...
constexpr uint16_t kAdminPortBase = 8201;    // admin ports 8201, 8202, ...
constexpr uint16_t kBalancerAdminPort = 8300;

std::string seed_note(const SimEngine& engine) {
  return "replay seed=" + std::to_string(engine.seed());
}

std::string http_get_close(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n";
}

// A deterministic COPS-HTTP backend on a fixed sim port, optionally with its
// admin endpoint (for HTTP health probes) on a second fixed port.
std::unique_ptr<CopsHttpServer> start_backend(test::TempDir& docs,
                                              uint16_t port,
                                              uint16_t admin_port = 0) {
  auto options = CopsHttpServer::default_options();
  simnet::make_deterministic(options);
  options.listen_port = port;
  if (admin_port != 0) {
    // make_deterministic turns stats off; the health-probe tests need the
    // backend's /healthz, which rides on the admin endpoint.
    options.profiling = true;
    options.stats_export = nserver::StatsExport::kAdminHttp;
    options.admin_port = admin_port;
  }
  HttpServerConfig config;
  config.doc_root = docs.str();
  auto server = std::make_unique<CopsHttpServer>(std::move(options), config);
  auto status = server->start();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  return server;
}

ResilienceConfig fast_resilience() {
  ResilienceConfig resilience;
  resilience.enabled = true;
  resilience.breaker_failure_threshold = 2;
  resilience.breaker_base_backoff = std::chrono::milliseconds(200);
  resilience.breaker_jitter = 0.2;
  resilience.retry_budget = 3;
  resilience.connect_timeout = std::chrono::milliseconds(100);
  return resilience;
}

// ---- the acceptance scenario -------------------------------------------------
//
// Three backends behind a resilient balancer; backend 0 is killed at the
// network level mid-run and revived later.  Three client waves: before the
// kill, during the outage (these must succeed via retry), and after the
// revival (the first of these trips the half-open probation that closes the
// breaker).  Returns the full deterministic trace for replay comparison.

struct ChaosOutcome {
  std::vector<std::string> trace;
  std::vector<std::string> responses;  // one per client, in launch order
  uint64_t dropped = 0;
  uint64_t retries = 0;
  std::vector<BackendStats> stats;
};

// `docs` is shared across runs so Last-Modified (real file mtime) matches
// when two same-seed runs compare their client-observed bytes.
ChaosOutcome run_breaker_chaos(uint64_t seed, test::TempDir& docs) {
  SimEngine engine(seed);
  std::vector<std::unique_ptr<CopsHttpServer>> backends;
  for (int i = 0; i < 3; ++i) {
    backends.push_back(
        start_backend(docs, static_cast<uint16_t>(kBackendPortBase + i)));
  }

  LoadBalancerConfig config;
  config.listen_port = kBalancerPort;
  config.resilience = fast_resilience();
  config.event_listener = [&engine](const std::string& event) {
    engine.record(event);
  };
  LoadBalancer balancer(config);
  for (int i = 0; i < 3; ++i) {
    balancer.add_backend(
        net::InetAddress::loopback(static_cast<uint16_t>(kBackendPortBase + i)));
  }
  auto started = balancer.start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();

  std::vector<SimClient*> clients;
  auto launch_wave = [&](int start_ms, int count) {
    for (int i = 0; i < count; ++i) {
      auto* client = engine.new_client();
      clients.push_back(client);
      engine.at(std::chrono::milliseconds(start_ms + 5 * i), [client] {
        client->connect(kBalancerPort);
        client->send(http_get_close("/index.html"));
      });
    }
  };

  launch_wave(5, 6);  // wave 1: all healthy
  engine.at(std::chrono::milliseconds(50),
            [&engine] { engine.kill_port(kBackendPortBase); });
  launch_wave(60, 6);  // wave 2: backend 0 dead — retries must cover
  engine.at(std::chrono::milliseconds(400),
            [&engine] { engine.revive_port(kBackendPortBase); });
  launch_wave(700, 6);  // wave 3: past the backoff — half-open, then closed

  EXPECT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  ChaosOutcome outcome;
  outcome.stats = balancer.backend_stats();
  outcome.dropped = balancer.dropped_clients();
  outcome.retries = balancer.total_retries();
  for (auto* client : clients) outcome.responses.push_back(client->received());
  outcome.trace = engine.trace();

  balancer.stop();
  for (auto& backend : backends) backend->stop();
  return outcome;
}

TEST(ClusterChaosTest, BackendKillBreakerLifecycleZeroClientFailures) {
  test::TempDir docs;
  docs.write_file("index.html", "<html>resilient</html>");
  const auto outcome = run_breaker_chaos(0xc0de, docs);

  // Zero client-visible failures: every client of every wave got a full 200.
  ASSERT_EQ(outcome.responses.size(), 18u);
  for (size_t i = 0; i < outcome.responses.size(); ++i) {
    EXPECT_NE(outcome.responses[i].find("HTTP/1.1 200 OK"), std::string::npos)
        << "client " << i << " got: " << outcome.responses[i];
    EXPECT_NE(outcome.responses[i].find("<html>resilient</html>"),
              std::string::npos)
        << "client " << i;
  }
  EXPECT_EQ(outcome.dropped, 0u);
  EXPECT_GT(outcome.retries, 0u);

  // The breaker walked its whole lifecycle, in order, in the event trace.
  const auto& trace = outcome.trace;
  auto find_event = [&trace](const std::string& needle) {
    for (size_t i = 0; i < trace.size(); ++i) {
      if (trace[i].find(needle) != std::string::npos) return i;
    }
    return trace.size();
  };
  const size_t open_at = find_event("breaker-open backend=0");
  const size_t half_at = find_event("breaker-halfopen backend=0");
  const size_t close_at = find_event("breaker-close backend=0");
  ASSERT_LT(open_at, trace.size()) << "no breaker-open event";
  ASSERT_LT(half_at, trace.size()) << "no breaker-halfopen event";
  ASSERT_LT(close_at, trace.size()) << "no breaker-close event";
  EXPECT_LT(open_at, half_at);
  EXPECT_LT(half_at, close_at);

  // Counters agree: one ejection on the killed backend, healed at the end.
  ASSERT_EQ(outcome.stats.size(), 3u);
  EXPECT_EQ(outcome.stats[0].ejections, 1u);
  EXPECT_EQ(outcome.stats[0].breaker, BreakerState::kClosed);
  EXPECT_GT(outcome.stats[0].connect_failures, 0u);
  // The survivors carried the outage traffic.
  EXPECT_GT(outcome.stats[1].connections + outcome.stats[2].connections, 6u);
}

TEST(ClusterChaosTest, BreakerChaosTraceIsBitIdenticalPerSeed) {
  test::TempDir docs;
  docs.write_file("index.html", "<html>resilient</html>");
  const auto first = run_breaker_chaos(0xc0de, docs);
  const auto second = run_breaker_chaos(0xc0de, docs);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.responses, second.responses);
}

// ---- active health checking --------------------------------------------------

TEST(ClusterChaosTest, HealthChecksMarkBackendDownThenUp) {
  SimEngine engine(0x4ea1);
  test::TempDir docs;
  docs.write_file("index.html", "<html>health</html>");

  std::vector<std::unique_ptr<CopsHttpServer>> backends;
  for (int i = 0; i < 2; ++i) {
    backends.push_back(
        start_backend(docs, static_cast<uint16_t>(kBackendPortBase + i),
                      static_cast<uint16_t>(kAdminPortBase + i)));
  }

  LoadBalancerConfig config;
  config.listen_port = kBalancerPort;
  config.resilience = fast_resilience();
  config.resilience.health_checks = true;
  config.resilience.health_http = true;
  config.resilience.health_interval = std::chrono::milliseconds(30);
  config.resilience.health_timeout = std::chrono::milliseconds(10);
  config.resilience.health_rise = 2;
  config.resilience.health_fall = 2;
  config.event_listener = [&engine](const std::string& event) {
    engine.record(event);
  };
  LoadBalancer balancer(config);
  for (int i = 0; i < 2; ++i) {
    balancer.add_backend(
        net::InetAddress::loopback(static_cast<uint16_t>(kBackendPortBase + i)),
        net::InetAddress::loopback(static_cast<uint16_t>(kAdminPortBase + i)));
  }
  ASSERT_TRUE(balancer.start().is_ok());

  // Kill backend 0's data AND admin port at 100ms: probes start failing, two
  // consecutive failures mark it down.  Clients during the outage must all
  // land on backend 1 without a connect attempt at backend 0 (active health
  // gating, not passive retry).
  engine.at(std::chrono::milliseconds(100), [&engine] {
    engine.kill_port(kBackendPortBase);
    engine.kill_port(kAdminPortBase);
  });
  std::vector<SimClient*> clients;
  for (int i = 0; i < 4; ++i) {
    auto* client = engine.new_client();
    clients.push_back(client);
    engine.at(std::chrono::milliseconds(350 + 5 * i), [client] {
      client->connect(kBalancerPort);
      client->send(http_get_close("/index.html"));
    });
  }
  engine.at(std::chrono::milliseconds(450), [&engine] {
    engine.revive_port(kBackendPortBase);
    engine.revive_port(kAdminPortBase);
  });
  engine.at(std::chrono::milliseconds(700), [] { /* let probes recover */ });

  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  const auto trace = engine.trace_text();
  EXPECT_NE(trace.find("health-down backend=0"), std::string::npos) << trace;
  EXPECT_NE(trace.find("health-up backend=0"), std::string::npos) << trace;

  for (auto* client : clients) {
    EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos);
  }
  const auto stats = balancer.backend_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].healthy);  // recovered by the end
  EXPECT_GT(stats[0].probes, 0u);
  EXPECT_GE(stats[0].probe_failures, 2u);
  // Outage-window clients were routed by the health verdict, not retried
  // against the dead backend.
  EXPECT_EQ(stats[1].connections, 4u);

  balancer.stop();
  for (auto& backend : backends) backend->stop();
}

// ---- connect deadline --------------------------------------------------------

TEST(ClusterChaosTest, ConnectDeadlineFiresOnStalledBackendAndRetries) {
  // stall_connects is a SYN blackhole: the connect never completes and never
  // fails, which is exactly the path a refusal-based skip cannot handle —
  // only the Connector's per-attempt deadline gets the client unstuck.
  SimEngine engine(0x57a1);
  test::TempDir docs;
  docs.write_file("index.html", "<html>deadline</html>");

  auto stalled = start_backend(docs, kBackendPortBase);
  auto healthy = start_backend(docs, kBackendPortBase + 1);
  engine.stall_connects(kBackendPortBase, true);

  LoadBalancerConfig config;
  config.listen_port = kBalancerPort;
  config.resilience = fast_resilience();  // connect_timeout = 100ms
  config.event_listener = [&engine](const std::string& event) {
    engine.record(event);
  };
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase));
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase + 1));
  ASSERT_TRUE(balancer.start().is_ok());

  auto* client = engine.new_client();
  const auto t0 = now();
  engine.at(std::chrono::milliseconds(5), [client] {
    client->connect(kBalancerPort);
    client->send(http_get_close("/index.html"));
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(now() - t0);

  EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos)
      << client->received();
  // The answer came after the 100ms deadline fired (not instantly, not
  // never): proof the timeout path ran, on the virtual clock.
  EXPECT_GE(elapsed.count(), 100);
  EXPECT_LT(elapsed.count(), 1000);

  const auto stats = balancer.backend_stats();
  EXPECT_EQ(stats[0].connect_failures, 1u);
  EXPECT_EQ(stats[0].retries, 1u);
  EXPECT_EQ(stats[1].connections, 1u);
  EXPECT_EQ(balancer.dropped_clients(), 0u);

  balancer.stop();
  stalled->stop();
  healthy->stop();
}

// ---- graceful drain ----------------------------------------------------------

TEST(ClusterChaosTest, DrainBackendRoutesAroundAndUndrainRestores) {
  SimEngine engine(0xd7a1);
  test::TempDir docs;
  docs.write_file("index.html", "<html>drain</html>");

  auto backend_a = start_backend(docs, kBackendPortBase);
  auto backend_b = start_backend(docs, kBackendPortBase + 1);

  LoadBalancerConfig config;
  config.listen_port = kBalancerPort;
  config.resilience = fast_resilience();
  config.event_listener = [&engine](const std::string& event) {
    engine.record(event);
  };
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase));
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase + 1));
  ASSERT_TRUE(balancer.start().is_ok());

  engine.at(std::chrono::milliseconds(10),
            [&balancer] { balancer.drain_backend(0); });
  std::vector<SimClient*> drained_wave;
  for (int i = 0; i < 4; ++i) {
    auto* client = engine.new_client();
    drained_wave.push_back(client);
    engine.at(std::chrono::milliseconds(50 + 5 * i), [client] {
      client->connect(kBalancerPort);
      client->send(http_get_close("/index.html"));
    });
  }
  engine.at(std::chrono::milliseconds(100),
            [&balancer] { balancer.drain_backend(0, false); });
  std::vector<SimClient*> restored_wave;
  for (int i = 0; i < 2; ++i) {
    auto* client = engine.new_client();
    restored_wave.push_back(client);
    engine.at(std::chrono::milliseconds(150 + 5 * i), [client] {
      client->connect(kBalancerPort);
      client->send(http_get_close("/index.html"));
    });
  }

  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  for (auto* client : drained_wave) {
    EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos);
  }
  for (auto* client : restored_wave) {
    EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos);
  }
  const auto trace = engine.trace_text();
  EXPECT_NE(trace.find("drain backend=0"), std::string::npos);
  EXPECT_NE(trace.find("undrain backend=0"), std::string::npos);

  // While draining, every session went to backend 1; after undrain the
  // round-robin rotation reaches backend 0 again.
  const auto stats = balancer.backend_stats();
  EXPECT_EQ(stats[0].connections, 1u);
  EXPECT_EQ(stats[1].connections, 5u);
  EXPECT_EQ(balancer.dropped_clients(), 0u);

  balancer.stop();
  backend_a->stop();
  backend_b->stop();
}

// ---- differential: resilience must be invisible to the client ----------------
//
// The same scripted clients, at the same virtual instants, once against a
// resilient balancer whose backend 0 dies mid-run and once directly against
// a single healthy backend.  The client-observed bytes must be identical —
// retry and ejection may never alter what a successful client receives.

std::vector<std::string> run_clients_against(uint16_t connect_port,
                                             SimEngine& engine) {
  std::vector<SimClient*> clients;
  const int kTimesMs[] = {10, 20, 30, 50, 60, 70, 80};
  for (int at : kTimesMs) {
    auto* client = engine.new_client();
    clients.push_back(client);
    engine.at(std::chrono::milliseconds(at), [client, connect_port] {
      client->connect(connect_port);
      client->send(http_get_close("/index.html"));
    });
  }
  EXPECT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();
  std::vector<std::string> received;
  for (auto* client : clients) received.push_back(client->received());
  return received;
}

// Both runs share one doc root: responses carry Last-Modified from the real
// file mtime, which must match for the byte-for-byte comparison.
std::vector<std::string> flapping_cluster_responses(test::TempDir& docs) {
  SimEngine engine(0xd1ff);
  auto backend_a = start_backend(docs, kBackendPortBase);
  auto backend_b = start_backend(docs, kBackendPortBase + 1);

  LoadBalancerConfig config;
  config.listen_port = kBalancerPort;
  config.resilience = fast_resilience();
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase));
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase + 1));
  EXPECT_TRUE(balancer.start().is_ok());

  // Backend 0 dies after the third client and never comes back.
  engine.at(std::chrono::milliseconds(40),
            [&engine] { engine.kill_port(kBackendPortBase); });

  auto received = run_clients_against(kBalancerPort, engine);
  EXPECT_EQ(balancer.dropped_clients(), 0u);
  balancer.stop();
  backend_a->stop();
  backend_b->stop();
  return received;
}

std::vector<std::string> single_backend_responses(test::TempDir& docs) {
  SimEngine engine(0xd1ff);
  auto backend = start_backend(docs, kBackendPortBase);
  auto received = run_clients_against(kBackendPortBase, engine);
  backend->stop();
  return received;
}

TEST(ClusterDifferentialTest, FlappingBackendServesSameBytesAsSingleBackend) {
  test::TempDir docs;
  docs.write_file("index.html", "<html>differential</html>");
  const auto cluster = flapping_cluster_responses(docs);
  const auto direct = single_backend_responses(docs);
  ASSERT_EQ(cluster.size(), direct.size());
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster[i], direct[i]) << "client " << i << " diverged";
    EXPECT_NE(cluster[i].find("HTTP/1.1 200 OK"), std::string::npos);
  }
}

// ---- balancer admin endpoint -------------------------------------------------

TEST(ClusterChaosTest, AdminStatsExposeBreakerAndHealthState) {
  SimEngine engine(0xad31);
  test::TempDir docs;
  docs.write_file("index.html", "<html>admin</html>");
  auto backend_a = start_backend(docs, kBackendPortBase);
  auto backend_b = start_backend(docs, kBackendPortBase + 1);

  LoadBalancerConfig config;
  config.listen_port = kBalancerPort;
  config.admin_enabled = true;
  config.admin_port = kBalancerAdminPort;
  config.resilience = fast_resilience();
  config.resilience.breaker_base_backoff = std::chrono::milliseconds(500);
  config.resilience.breaker_jitter = 0.0;  // keep the breaker open past 100ms
  LoadBalancer balancer(config);
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase));
  balancer.add_backend(net::InetAddress::loopback(kBackendPortBase + 1));
  ASSERT_TRUE(balancer.start().is_ok());

  // Kill backend 0, then drive enough clients through to trip the breaker
  // (threshold 2: two of the three rotations start at backend 0).
  engine.at(std::chrono::milliseconds(10),
            [&engine] { engine.kill_port(kBackendPortBase); });
  for (int i = 0; i < 3; ++i) {
    auto* client = engine.new_client();
    engine.at(std::chrono::milliseconds(20 + 5 * i), [client] {
      client->connect(kBalancerPort);
      client->send(http_get_close("/index.html"));
    });
  }
  auto* healthz = engine.new_client();
  auto* stats_scrape = engine.new_client();
  auto* json_scrape = engine.new_client();
  engine.at(std::chrono::milliseconds(100), [&] {
    healthz->connect(kBalancerAdminPort);
    healthz->send(http_get_close("/healthz"));
    stats_scrape->connect(kBalancerAdminPort);
    stats_scrape->send(http_get_close("/stats"));
    json_scrape->connect(kBalancerAdminPort);
    json_scrape->send(http_get_close("/stats.json"));
  });

  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  EXPECT_NE(healthz->received().find("200 OK"), std::string::npos);
  EXPECT_NE(healthz->received().find("ok"), std::string::npos);

  const auto& prom = stats_scrape->received();
  EXPECT_NE(prom.find("cops_cluster_backend_healthy{backend=\"0\"} 1"),
            std::string::npos)
      << prom;
  // BreakerState::kOpen renders as gauge value 1.
  EXPECT_NE(prom.find("cops_cluster_backend_breaker_state{backend=\"0\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cops_cluster_backend_breaker_state{backend=\"1\"} 0"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cops_cluster_backend_ejections_total{backend=\"0\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cops_cluster_retries_total 2"), std::string::npos)
      << prom;

  const auto& json = json_scrape->received();
  EXPECT_NE(json.find("\"breaker\":\"open\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ejections\":1"), std::string::npos) << json;

  balancer.stop();
  backend_a->stop();
  backend_b->stop();
}

// ---- per-IP connection cap ---------------------------------------------------

TEST(ServerLimitsSimTest, PerIpConnectionCapRejectsExcessClients) {
  // Every scripted SimClient shares the source host 10.0.0.1, so a cap of 2
  // admits the first two connections and rejects the rest at accept.
  SimEngine engine(0x1b);
  test::TempDir docs;
  docs.write_file("index.html", "<html>cap</html>");

  auto options = CopsHttpServer::default_options();
  simnet::make_deterministic(options);
  options.listen_port = kBackendPortBase;
  options.profiling = true;
  options.max_connections_per_ip = 2;
  HttpServerConfig config;
  config.doc_root = docs.str();
  CopsHttpServer server(std::move(options), config);
  ASSERT_TRUE(server.start().is_ok());

  auto* held_a = engine.new_client();
  auto* held_b = engine.new_client();
  auto* rejected_a = engine.new_client();
  auto* rejected_b = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [&] {
    held_a->connect(kBackendPortBase);
    held_b->connect(kBackendPortBase);
  });
  engine.at(std::chrono::milliseconds(10), [&] {
    rejected_a->connect(kBackendPortBase);
    rejected_b->connect(kBackendPortBase);
  });
  // The held connections finish later; their slots were occupied while the
  // other two were turned away.
  engine.at(std::chrono::milliseconds(100), [&] {
    held_a->send(http_get_close("/index.html"));
    held_b->send(http_get_close("/index.html"));
  });

  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  EXPECT_NE(held_a->received().find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(held_b->received().find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_TRUE(rejected_a->peer_closed());
  EXPECT_TRUE(rejected_b->peer_closed());
  EXPECT_TRUE(rejected_a->received().empty());
  EXPECT_TRUE(rejected_b->received().empty());
  EXPECT_EQ(server.server().profile().per_ip_rejections, 2u);
  server.stop();
}

TEST(ServerLimitsSimTest, PerIpCapReleasedWhenConnectionCloses) {
  SimEngine engine(0x1c);
  test::TempDir docs;
  docs.write_file("index.html", "<html>cap2</html>");

  auto options = CopsHttpServer::default_options();
  simnet::make_deterministic(options);
  options.listen_port = kBackendPortBase;
  options.profiling = true;
  options.max_connections_per_ip = 1;
  HttpServerConfig config;
  config.doc_root = docs.str();
  CopsHttpServer server(std::move(options), config);
  ASSERT_TRUE(server.start().is_ok());

  auto* first = engine.new_client();
  auto* second = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [&] {
    first->connect(kBackendPortBase);
    first->send(http_get_close("/index.html"));
  });
  // By 100ms the first connection has completed and been released, so the
  // same IP gets its slot back.
  engine.at(std::chrono::milliseconds(100), [&] {
    second->connect(kBackendPortBase);
    second->send(http_get_close("/index.html"));
  });

  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  EXPECT_NE(first->received().find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(second->received().find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(server.server().profile().per_ip_rejections, 0u);
  server.stop();
}

// ---- slowloris defense -------------------------------------------------------

TEST(ServerLimitsSimTest, SlowlorisHeaderTimeoutReapsStalledConnection) {
  // One peer drips a request line byte by byte and never finishes; a control
  // peer completes a request and idles on keep-alive.  Only the dripper may
  // be reaped: the header deadline is measured from the first partial byte
  // and deliberately NOT refreshed by further drip bytes (anti-evasion), and
  // it must not fire for connections with no partial request pending.
  SimEngine engine(0x510);
  test::TempDir docs;
  docs.write_file("index.html", "<html>slow</html>");

  auto options = CopsHttpServer::default_options();
  simnet::make_deterministic(options);
  options.listen_port = kBackendPortBase;
  options.profiling = true;
  options.header_read_timeout = std::chrono::seconds(1);
  options.housekeeping_interval = std::chrono::milliseconds(200);
  HttpServerConfig config;
  config.doc_root = docs.str();
  CopsHttpServer server(std::move(options), config);
  ASSERT_TRUE(server.start().is_ok());

  auto* dripper = engine.new_client();
  auto* control = engine.new_client();
  engine.at(std::chrono::milliseconds(1), [&] {
    dripper->connect(kBackendPortBase);
    dripper->send("GET / HTTP/1.1\r\nHo");  // stuck mid-headers
    control->connect(kBackendPortBase);
    control->send(
        "GET /index.html HTTP/1.1\r\nHost: c\r\nConnection: keep-alive\r\n\r\n");
  });
  // Drip more bytes at 500ms: activity, but still no complete request — the
  // deadline must not reset.
  engine.at(std::chrono::milliseconds(500), [&] { dripper->send("st: x"); });
  bool control_alive_after_reap = false;
  engine.at(std::chrono::milliseconds(1500), [&] {
    control_alive_after_reap = !control->peer_closed();
    control->close();
  });

  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  EXPECT_TRUE(dripper->peer_closed()) << engine.trace_text();
  EXPECT_TRUE(control_alive_after_reap)
      << "keep-alive connection wrongly reaped by the header deadline";
  EXPECT_NE(control->received().find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(server.server().profile().header_timeouts, 1u);
  server.stop();
}

TEST(ServerLimitsSimTest, PartialRequestAfterKeepAliveReplyIsReaped) {
  // The first request itself arrives in two pieces, so the slowloris clock
  // starts at 1ms and must be cleared when its reply drains.  A partial
  // request at 900ms then gets a fresh 1s window: not reaped by 1.5s (a
  // stale 1ms stamp would reap at the 1.2s tick), reaped by 2.5s (a clock
  // that never started would not reap at all).
  SimEngine engine(0x51e);
  test::TempDir docs;
  docs.write_file("index.html", "<html>again</html>");

  auto options = CopsHttpServer::default_options();
  simnet::make_deterministic(options);
  options.listen_port = kBackendPortBase;
  options.profiling = true;
  options.header_read_timeout = std::chrono::seconds(1);
  options.housekeeping_interval = std::chrono::milliseconds(200);
  HttpServerConfig config;
  config.doc_root = docs.str();
  CopsHttpServer server(std::move(options), config);
  ASSERT_TRUE(server.start().is_ok());

  auto* client = engine.new_client();
  engine.at(std::chrono::milliseconds(1), [&] {
    client->connect(kBackendPortBase);
    client->send("GET /index.html HTTP/1.1\r\nHo");
  });
  engine.at(std::chrono::milliseconds(300), [&] {
    client->send("st: c\r\nConnection: keep-alive\r\n\r\n");
  });
  bool replied_before_partial = false;
  engine.at(std::chrono::milliseconds(900), [&] {
    replied_before_partial =
        client->received().find("HTTP/1.1 200 OK") != std::string::npos;
    client->send("GET /index.html HTTP/1.1\r\n");  // never finished
  });
  bool alive_at_1500 = false;
  engine.at(std::chrono::milliseconds(1500),
            [&] { alive_at_1500 = !client->peer_closed(); });
  bool closed_at_2500 = false;
  engine.at(std::chrono::milliseconds(2500),
            [&] { closed_at_2500 = client->peer_closed(); });

  ASSERT_TRUE(engine.run(std::chrono::seconds(5)))
      << seed_note(engine) << "\n" << engine.trace_text();

  EXPECT_TRUE(replied_before_partial) << engine.trace_text();
  EXPECT_TRUE(alive_at_1500)
      << "header deadline measured from the previous request's first byte";
  EXPECT_TRUE(closed_at_2500) << "partial request after a reply never reaped";
  EXPECT_EQ(server.server().profile().header_timeouts, 1u);
  server.stop();
}

TEST(ServerLimitsSimTest, HeaderTimeoutFiresOnVirtualClockSchedule) {
  // Determinism spot-check: the reap lands at the first housekeeping tick
  // after the deadline, on the virtual clock — run twice, identical traces.
  auto run_once = [](uint64_t seed) {
    SimEngine engine(seed);
    test::TempDir docs;
    auto options = CopsHttpServer::default_options();
    simnet::make_deterministic(options);
    options.listen_port = kBackendPortBase;
    options.header_read_timeout = std::chrono::seconds(1);
    options.housekeeping_interval = std::chrono::milliseconds(200);
    HttpServerConfig config;
    config.doc_root = docs.str();
    CopsHttpServer server(std::move(options), config);
    EXPECT_TRUE(server.start().is_ok());

    auto* dripper = engine.new_client();
    engine.at(std::chrono::milliseconds(1), [dripper] {
      dripper->connect(kBackendPortBase);
      dripper->send("GET /x HTTP/1.1\r\n");
    });
    const auto t0 = now();
    EXPECT_TRUE(engine.run(std::chrono::seconds(10)))
        << seed_note(engine) << "\n" << engine.trace_text();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(now() - t0);
    // Reaped at 1.2s (first 200ms housekeeping tick past the 1s deadline),
    // not at the engine deadline.
    EXPECT_TRUE(dripper->peer_closed());
    EXPECT_GE(elapsed.count(), 1000);
    EXPECT_LT(elapsed.count(), 1500);
    server.stop();
    return engine.trace();
  };
  const auto first = run_once(0x51d);
  const auto second = run_once(0x51d);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace cops::cluster
