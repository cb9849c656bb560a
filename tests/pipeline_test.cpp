// Behavioural tests of the five-step pipeline, RequestContext resolutions,
// the Client Component (connect_peer), event scheduling end-to-end, and
// overload control end-to-end.
#include <gtest/gtest.h>

#include <thread>

#include "nserver/request_context.hpp"
#include "nserver/server.hpp"
#include "tests/test_util.hpp"

namespace cops::nserver {
namespace {

// Line-echo hooks with instrumentation knobs.
class ProbeHooks : public AppHooks {
 public:
  std::atomic<int> connects{0};
  std::atomic<int> closes{0};
  std::atomic<int> decoded{0};  // every decode() call, need-more included
  std::atomic<int> handled{0};
  std::atomic<int> encoded{0};
  // When set, handle() resolves with finish() instead of replying.
  std::atomic<bool> silent{false};
  // When set, handle() defers its reply through an extra thread hop.
  std::atomic<bool> defer{false};
  // Artificial per-request handle cost.
  std::atomic<int> handle_delay_ms{0};
  std::function<int(const std::string&)> classify;

  void on_connect(RequestContext& ctx) override {
    connects.fetch_add(1);
    ctx.send("HELLO\n");
  }
  void on_close(uint64_t) override { closes.fetch_add(1); }

  DecodeResult decode(RequestContext&, ByteBuffer& in) override {
    decoded.fetch_add(1);
    const size_t eol = in.find("\n");
    if (eol == std::string_view::npos) return DecodeResult::need_more();
    std::string line(in.view().substr(0, eol));
    in.consume(eol + 1);
    const int priority = classify ? classify(line) : 0;
    return DecodeResult::request_ready(std::move(line), priority);
  }

  void handle(RequestContext& ctx, std::any request) override {
    handled.fetch_add(1);
    if (handle_delay_ms.load() > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(handle_delay_ms.load()));
    }
    auto line = std::any_cast<std::string>(std::move(request));
    if (silent.load()) {
      ctx.finish();
      return;
    }
    if (line == "CLOSE") {
      ctx.close_after_reply();
      ctx.reply(std::string("BYE"));
      return;
    }
    if (defer.load()) {
      // Resolve from a foreign thread — contexts are thread-safe carriers.
      // Resolution responsibility transfers to the handle; this context is
      // dropped unresolved.
      auto deferred = ctx.make_handle();
      std::thread([deferred, line] {
        deferred->reply(std::string("DEFER:") + line);
      }).detach();
      return;
    }
    ctx.reply(std::string("ECHO:") + line);
  }

  std::string encode(RequestContext&, std::any response) override {
    encoded.fetch_add(1);
    return std::any_cast<std::string>(std::move(response)) + "\n";
  }
};

class PipelineFixture : public ::testing::Test {
 protected:
  void start(ServerOptions options = {}) {
    hooks_ = std::make_shared<ProbeHooks>();
    options.listen_port = 0;
    server_ = std::make_unique<Server>(options, hooks_);
    auto status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  void TearDown() override {
    if (server_) server_->stop();
  }

  std::shared_ptr<ProbeHooks> hooks_;
  std::unique_ptr<Server> server_;
};

TEST_F(PipelineFixture, GreetingAndEcho) {
  start();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  EXPECT_EQ(client.read_until("HELLO\n").substr(0, 6), "HELLO\n");
  client.send_all("abc\n");
  EXPECT_NE(client.read_until("ECHO:abc\n").find("ECHO:abc"),
            std::string::npos);
  EXPECT_EQ(hooks_->connects.load(), 1);
}

TEST_F(PipelineFixture, OnCloseFiresWhenPeerDisconnects) {
  start();
  {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    client.read_until("HELLO\n");
  }
  for (int i = 0; i < 300 && hooks_->closes.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(hooks_->closes.load(), 1);
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(PipelineFixture, CloseAfterReplySendsThenCloses) {
  start();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("CLOSE\n");
  const auto data = client.read_some();  // reads until server closes
  EXPECT_NE(data.find("BYE"), std::string::npos);
  for (int i = 0; i < 300 && server_->connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(PipelineFixture, FinishWithoutReplyKeepsConnectionUsable) {
  start();
  hooks_->silent = true;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("one\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hooks_->silent = false;
  client.send_all("two\n");
  EXPECT_NE(client.read_until("ECHO:two\n").find("ECHO:two"),
            std::string::npos);
  EXPECT_EQ(hooks_->handled.load(), 2);
}

TEST_F(PipelineFixture, DeferredReplyFromForeignThread) {
  start();
  hooks_->defer = true;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("x\n");
  EXPECT_NE(client.read_until("DEFER:x\n").find("DEFER:x"),
            std::string::npos);
}

TEST_F(PipelineFixture, PipelinedLinesAllEchoed) {
  start();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("a\nb\nc\n");
  const auto data = client.read_until("ECHO:c\n");
  EXPECT_NE(data.find("ECHO:a\n"), std::string::npos);
  EXPECT_NE(data.find("ECHO:b\n"), std::string::npos);
  EXPECT_NE(data.find("ECHO:c\n"), std::string::npos);
}

TEST_F(PipelineFixture, LargeReplySurvivesBackpressure) {
  // A reply far larger than the socket buffer must drain via writable
  // events while the client reads slowly.
  start();
  hooks_->classify = nullptr;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  // Swap hooks behaviour: echo a megabyte.
  hooks_->silent = false;
  std::string big(1024 * 1024, 'z');
  client.send_all(big.substr(0, 100) + "\n");  // request is small
  // Server echoes 100 z's; now ask again with server-side inflation instead:
  // reuse echo but send many pipelined lines to build a large outbound sum.
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "0123456789012345678901234567890123456789\n";
  client.send_all(burst);
  size_t received = 0;
  const size_t expected = 2000u * 46u;  // "ECHO:" + 40 chars + '\n'
  char buf[8192];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received < expected &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(client.fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    received += static_cast<size_t>(n);
    std::this_thread::sleep_for(std::chrono::microseconds(200));  // slow reader
  }
  EXPECT_GE(received, expected);
}

// ---- Client Component -------------------------------------------------------

TEST_F(PipelineFixture, ConnectPeerEstablishesOutboundCommunicator) {
  start();
  // Raw peer the server connects out to.
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0), 8);
  ASSERT_TRUE(listener.is_ok());
  const uint16_t peer_port = listener.value().local_address().value().port();

  std::atomic<uint64_t> conn_id{0};
  std::atomic<bool> failed{false};
  server_->connect_peer(net::InetAddress::loopback(peer_port),
                        [&](Result<uint64_t> id) {
                          if (id.is_ok()) {
                            conn_id = id.value();
                          } else {
                            failed = true;
                          }
                        });
  // Accept on the raw side.
  Result<net::TcpSocket> accepted = Status::would_block();
  for (int i = 0; i < 2000 && !accepted.is_ok(); ++i) {
    accepted = listener.value().accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.is_ok());
  ASSERT_FALSE(failed.load());
  for (int i = 0; i < 1000 && conn_id.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(conn_id.load(), 0u);
  EXPECT_EQ(server_->connection_count(), 1u);

  // The outbound connection runs the same hooks: greeting arrives...
  ByteBuffer in;
  for (int i = 0; i < 1000 && in.find("HELLO\n") == std::string_view::npos;
       ++i) {
    auto n = accepted.value().read(in);
    (void)n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(in.find("HELLO\n"), std::string_view::npos);
  in.clear();

  // ...and requests sent by the peer are decoded/handled/encoded.
  ByteBuffer out{std::string_view("ping\n")};
  ASSERT_TRUE(accepted.value().write(out).is_ok());
  for (int i = 0; i < 1000 && in.find("ECHO:ping\n") == std::string_view::npos;
       ++i) {
    auto n = accepted.value().read(in);
    (void)n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(in.find("ECHO:ping\n"), std::string_view::npos);
}

TEST_F(PipelineFixture, ConnectPeerFailureReported) {
  start();
  uint16_t dead_port = 0;
  {
    auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().local_address().value().port();
  }
  std::atomic<bool> failed{false};
  server_->connect_peer(net::InetAddress::loopback(dead_port),
                        [&](Result<uint64_t> id) {
                          failed = !id.is_ok();
                        });
  for (int i = 0; i < 1000 && !failed.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(failed.load());
  EXPECT_EQ(server_->connection_count(), 0u);
}

// ---- event scheduling end-to-end ------------------------------------------------

TEST_F(PipelineFixture, SchedulingPrioritizesUrgentRequests) {
  ServerOptions options;
  options.event_scheduling = true;
  options.priority_quotas = {100, 1};
  options.processor_threads = 1;  // serialize to make ordering observable
  start(options);
  hooks_->classify = [](const std::string& line) {
    return line.rfind("urgent", 0) == 0 ? 0 : 1;
  };
  hooks_->handle_delay_ms = 5;

  // One slow stream of normal requests from client A keeps the worker busy;
  // client B's urgent request must overtake A's queued backlog.
  test::BlockingClient a;
  ASSERT_TRUE(a.connect("127.0.0.1", server_->port()));
  a.read_until("HELLO\n");
  std::string backlog;
  for (int i = 0; i < 20; ++i) {
    backlog += "normal" + std::to_string(i) + "\n";
  }
  a.send_all(backlog);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));

  test::BlockingClient b;
  ASSERT_TRUE(b.connect("127.0.0.1", server_->port()));
  b.read_until("HELLO\n");
  const auto t0 = std::chrono::steady_clock::now();
  b.send_all("urgent\n");
  b.read_until("ECHO:urgent\n", 5000);
  const auto urgent_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  // Without priorities the urgent request would wait behind ~20 * 5 ms of
  // per-connection sequential backlog... but requests of one connection are
  // serialized; the backlog consists of A's pipeline. B's urgent request
  // needs only ~1-2 service slots.
  EXPECT_LT(urgent_ms, 60) << "urgent request waited behind normal backlog";
}

// ---- overload control end-to-end --------------------------------------------------

TEST_F(PipelineFixture, OverloadSuspendsAndResumesAccepting) {
  ServerOptions options;
  options.overload_control = true;
  options.queue_high_watermark = 3;
  options.queue_low_watermark = 1;
  options.housekeeping_interval = std::chrono::milliseconds(10);
  options.processor_threads = 1;
  start(options);
  hooks_->handle_delay_ms = 30;

  // Flood with pipelined requests from one connection to back up the queue.
  test::BlockingClient flooder;
  ASSERT_TRUE(flooder.connect("127.0.0.1", server_->port()));
  flooder.read_until("HELLO\n");
  std::string burst;
  for (int i = 0; i < 30; ++i) burst += "work\n";
  flooder.send_all(burst);

  // Wait for the controller to trip.
  bool suspended = false;
  for (int i = 0; i < 500; ++i) {
    if (!server_->accepting()) {
      suspended = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Note: a single connection's requests are serialized, so the queue
  // depth stays near 1 — build pressure with several connections instead.
  if (!suspended) {
    std::vector<std::unique_ptr<test::BlockingClient>> clients;
    for (int c = 0; c < 8; ++c) {
      auto client = std::make_unique<test::BlockingClient>();
      ASSERT_TRUE(client->connect("127.0.0.1", server_->port()));
      client->send_all("work\nwork\nwork\n");
      clients.push_back(std::move(client));
    }
    for (int i = 0; i < 1000; ++i) {
      if (!server_->accepting()) {
        suspended = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(suspended);
    clients.clear();
  }
  // After the backlog drains the acceptor resumes.
  for (int i = 0; i < 2000 && !server_->accepting(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(server_->accepting());
}

// ---- graceful drain -----------------------------------------------------------------

TEST_F(PipelineFixture, DrainWaitsForInFlightWork) {
  start();
  hooks_->handle_delay_ms = 50;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("slow\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // in-flight
  const bool idle = server_->drain(std::chrono::seconds(3));
  EXPECT_TRUE(idle);
  // The in-flight request was answered before shutdown.
  const auto data = client.read_some();
  EXPECT_NE(data.find("ECHO:slow"), std::string::npos);
}

TEST_F(PipelineFixture, DrainTimesOutOnStuckWork) {
  start();
  hooks_->handle_delay_ms = 1500;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("stuck\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(server_->drain(std::chrono::milliseconds(100)));
}

TEST(ServerLifecycle, FailedStartDoesNotHangOnDestruction) {
  ServerOptions options;
  options.dispatcher_threads = 0;  // invalid: start() must fail
  auto hooks = std::make_shared<ProbeHooks>();
  {
    Server server(options, hooks);
    EXPECT_FALSE(server.start().is_ok());
    EXPECT_TRUE(server.drain(std::chrono::milliseconds(10)));
    server.stop();  // must be a no-op, not a deadlock
  }                 // destructor must return promptly too
}

TEST(ServerLifecycle, PortAlreadyInUseFailsCleanly) {
  auto listener = net::TcpListener::listen(net::InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  ServerOptions options;
  options.listen_port = listener.value().local_address().value().port();
  auto hooks = std::make_shared<ProbeHooks>();
  Server server(options, hooks);
  EXPECT_FALSE(server.start().is_ok());
}

TEST_F(PipelineFixture, DrainOnIdleServerIsImmediate) {
  start();
  const auto begin = now();
  EXPECT_TRUE(server_->drain(std::chrono::seconds(5)));
  EXPECT_LT(to_millis(now() - begin), 1000);
}

TEST_F(PipelineFixture, DrainRightAfterServedRequestIsImmediate) {
  start();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  client.send_all("one\n");
  ASSERT_NE(client.read_until("ECHO:one\n").find("ECHO:one"),
            std::string::npos);
  const auto begin = now();
  EXPECT_TRUE(server_->drain(std::chrono::seconds(5)));
  EXPECT_LT(to_millis(now() - begin), 1000);
}

TEST_F(PipelineFixture, NoCodecKeepAliveHandlesEachChunkOnce) {
  // Fig. 2 (O3 = No): raw chunks go straight to handle(), which replies
  // with wire bytes; the connection keeps serving after each reply.
  ServerOptions options;
  options.encode_decode = false;
  start(options);
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  for (const std::string line : {"a\n", "bb\n", "ccc\n"}) {
    client.send_all(line);
    EXPECT_EQ(client.read_until("ECHO:" + line), "ECHO:" + line);
  }
  ASSERT_TRUE(server_->drain(std::chrono::seconds(5)));
  EXPECT_EQ(hooks_->handled.load(), 3);
  EXPECT_EQ(hooks_->decoded.load(), 0);
  EXPECT_EQ(hooks_->encoded.load(), 0);
}

// ---- decode-count gates (perf-smoke) -----------------------------------------
// After a reply drains with nothing buffered, the connection goes straight
// back to reading: decode() runs once per request, never on an empty buffer.
// drain() returns only once every pipeline is inactive and the processor
// queue is empty, so the counts below are final when it returns.

class PipelineDecodeCount : public PipelineFixture {};

TEST_F(PipelineDecodeCount, SequentialKeepAliveDecodesOncePerRequest) {
  start();
  constexpr int kRequests = 20;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  for (int i = 0; i < kRequests; ++i) {
    const std::string line = "req" + std::to_string(i);
    client.send_all(line + "\n");
    const std::string echo = "ECHO:" + line + "\n";
    ASSERT_NE(client.read_until(echo).find(echo), std::string::npos);
  }
  ASSERT_TRUE(server_->drain(std::chrono::seconds(5)));
  EXPECT_EQ(hooks_->handled.load(), kRequests);
  EXPECT_EQ(hooks_->decoded.load(), kRequests);
}

TEST_F(PipelineDecodeCount, PipelinedBurstDecodesOncePerRequest) {
  start();
  constexpr int kRequests = 10;
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
  client.read_until("HELLO\n");
  std::string burst;
  std::string expected;
  for (int i = 0; i < kRequests; ++i) {
    burst += "p" + std::to_string(i) + "\n";
    expected += "ECHO:p" + std::to_string(i) + "\n";
  }
  client.send_all(burst);  // one write: every line lands in one read
  const std::string last = "ECHO:p" + std::to_string(kRequests - 1) + "\n";
  EXPECT_EQ(client.read_until(last), expected);
  ASSERT_TRUE(server_->drain(std::chrono::seconds(5)));
  EXPECT_EQ(hooks_->decoded.load(), kRequests);
}

// ---- multi-dispatcher (O1) stress --------------------------------------------------

TEST_F(PipelineFixture, MultiDispatcherShardsConnections) {
  ServerOptions options;
  options.dispatcher_threads = 3;
  start(options);
  constexpr int kClients = 12;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      test::BlockingClient client;
      if (!client.connect("127.0.0.1", server_->port())) return;
      client.read_until("HELLO\n");
      client.send_all("msg\n");
      if (client.read_until("ECHO:msg\n").find("ECHO:msg") !=
          std::string::npos) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  for (int i = 0; i < 500 && server_->connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->connection_count(), 0u);
}

}  // namespace
}  // namespace cops::nserver
