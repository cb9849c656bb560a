// Send-path tests: SendQueue segment mechanics, writev resumption under
// injected partial writes / EINTR / EAGAIN, sendfile partial sends, and the
// differential guarantee that send_path=writev and send_path=sendfile put
// byte-identical reply streams on the wire for the same seed.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/send_queue.hpp"
#include "http/http_server.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops {
namespace {

std::string iov_to_string(const struct iovec& iov) {
  return std::string(static_cast<const char*>(iov.iov_base), iov.iov_len);
}

TEST(SendQueueTest, FillIovecGathersLeadingMemoryRun) {
  SendQueue queue;
  EncodedReply reply;
  reply.add_owned("HTTP/1.1 200 OK\r\n\r\n");
  auto body = std::make_shared<std::string>("shared-body");
  reply.add_shared(body, body->data(), body->size());
  queue.push(std::move(reply));

  struct iovec iov[4];
  const int count = queue.fill_iovec(iov, 4);
  ASSERT_EQ(count, 2);
  EXPECT_EQ(iov_to_string(iov[0]), "HTTP/1.1 200 OK\r\n\r\n");
  EXPECT_EQ(iov_to_string(iov[1]), "shared-body");
  EXPECT_EQ(queue.readable(), 19u + 11u);
}

TEST(SendQueueTest, ConsumeAdvancesAcrossAndWithinSegments) {
  SendQueue queue;
  queue.push_owned("abcdef");
  queue.push_owned("ghij");
  // Mid-segment consume: 4 bytes leaves "ef" at the front.
  queue.consume(4);
  struct iovec iov[4];
  ASSERT_EQ(queue.fill_iovec(iov, 4), 2);
  EXPECT_EQ(iov_to_string(iov[0]), "ef");
  EXPECT_EQ(iov_to_string(iov[1]), "ghij");
  // Consume across the segment boundary.
  queue.consume(3);
  ASSERT_EQ(queue.fill_iovec(iov, 4), 1);
  EXPECT_EQ(iov_to_string(iov[0]), "hij");
  queue.consume(3);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.readable(), 0u);
}

TEST(SendQueueTest, FileSegmentStopsTheGatherRun) {
  SendQueue queue;
  EncodedReply reply;
  reply.add_owned("headers");
  auto owner = std::make_shared<int>(42);
  reply.add_file(owner, /*fd=*/7, /*offset=*/100, /*len=*/50);
  queue.push(std::move(reply));

  struct iovec iov[4];
  ASSERT_EQ(queue.fill_iovec(iov, 4), 1);  // stops before the file slice
  queue.consume(7);
  EXPECT_TRUE(queue.front_is_file());
  EXPECT_EQ(queue.fill_iovec(iov, 4), 0);
  EXPECT_EQ(queue.front_file_fd(), 7);
  EXPECT_EQ(queue.front_file_offset(), 100u);
  EXPECT_EQ(queue.front_file_remaining(), 50u);
  // Partial sendfile result advances the file offset.
  queue.consume_file(20);
  EXPECT_EQ(queue.front_file_offset(), 120u);
  EXPECT_EQ(queue.front_file_remaining(), 30u);
  queue.consume_file(30);
  EXPECT_TRUE(queue.empty());
}

TEST(SendQueueTest, EmptySegmentsAreDropped) {
  SendQueue queue;
  queue.push_owned("");
  EncodedReply reply;
  reply.add_owned("");
  queue.push(std::move(reply));
  EXPECT_TRUE(queue.empty());
}

TEST(SendQueueTest, CopiedBytesCountsOwnedNotShared) {
  EncodedReply reply;
  reply.add_owned("0123456789");
  auto body = std::make_shared<std::string>(1000, 'b');
  reply.add_shared(body, body->data(), body->size());
  EXPECT_EQ(reply.copied_bytes, 10u);
  EXPECT_EQ(reply.size(), 1010u);
}

}  // namespace
}  // namespace cops

namespace cops::simnet {
namespace {

using std::chrono::milliseconds;

std::string small_file() { return "alpha file: the quick brown fox\n"; }
std::string big_file() {
  std::string out;
  out.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    out += static_cast<char>('A' + (i * 7) % 26);
  }
  return out;
}

// The fixed scenario every send-path run replays: cached GETs, a HEAD, a
// 404, a 304, then a closing GET.
std::string scenario_wire() {
  return "GET /a.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
         "GET /b.bin HTTP/1.1\r\nHost: sim\r\n\r\n"
         "HEAD /b.bin HTTP/1.1\r\nHost: sim\r\n\r\n"
         "GET /missing.txt HTTP/1.1\r\nHost: sim\r\n\r\n"
         "GET /a.txt HTTP/1.1\r\nHost: sim\r\n"
         "If-Modified-Since: Sun, 01 Jan 2040 00:00:00 GMT\r\n\r\n"
         "GET /b.bin HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n";
}

struct WireResponse {
  int status = 0;
  size_t content_length = 0;
  std::string body;
};

// Splits a reply stream into responses.  `body_suppressed` marks responses
// whose headers announce a length but carry no body bytes (HEAD, 304).
bool split_responses(const std::string& stream,
                     const std::vector<bool>& body_suppressed,
                     std::vector<WireResponse>& out, std::string& error) {
  size_t pos = 0;
  for (bool suppressed : body_suppressed) {
    const size_t header_end = stream.find("\r\n\r\n", pos);
    if (header_end == std::string::npos) {
      error = "missing header terminator for response " +
              std::to_string(out.size());
      return false;
    }
    const std::string head = stream.substr(pos, header_end - pos);
    WireResponse resp;
    if (head.rfind("HTTP/1.1 ", 0) != 0) {
      error = "bad status line: " + head.substr(0, 40);
      return false;
    }
    resp.status = std::stoi(head.substr(9, 3));
    if (const size_t cl = head.find("Content-Length: ");
        cl != std::string::npos) {
      resp.content_length = std::stoul(head.substr(cl + 16));
    }
    pos = header_end + 4;
    if (!suppressed) {
      if (pos + resp.content_length > stream.size()) {
        error = "truncated body for response " + std::to_string(out.size());
        return false;
      }
      resp.body = stream.substr(pos, resp.content_length);
      pos += resp.content_length;
    }
    out.push_back(std::move(resp));
  }
  if (pos != stream.size()) {
    error = "trailing bytes after last response: " +
            std::to_string(stream.size() - pos);
    return false;
  }
  return true;
}

struct RunResult {
  std::string received;
  std::vector<std::string> trace;
};

// Replays the fixed scenario through the full COPS-HTTP stack over simnet
// with the given send path and fault plan.
RunResult run_scenario(uint64_t seed, const FaultPlan& plan,
                       nserver::SendPath send_path,
                       size_t sendfile_min_bytes = 256 * 1024) {
  SimEngine engine(seed, plan);
  SCOPED_TRACE("send-path replay seed=" + std::to_string(seed));

  test::TempDir dir;
  dir.write_file("a.txt", small_file());
  dir.write_file("b.bin", big_file());
  // Pin the docroot mtimes: Last-Modified must not depend on which
  // wall-clock second this run happened to create its files in, or the
  // writev-vs-sendfile differential runs can straddle a second boundary.
  const auto fixed_mtime = std::chrono::file_clock::from_sys(
      std::chrono::sys_seconds(std::chrono::seconds(784111777)));
  std::filesystem::last_write_time(dir.path() / "a.txt", fixed_mtime);
  std::filesystem::last_write_time(dir.path() / "b.bin", fixed_mtime);

  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  options.listen_port = 8090;
  options.send_path = send_path;
  options.sendfile_min_bytes = sendfile_min_bytes;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();
  if (!started.is_ok()) return {};

  auto* client = engine.new_client();
  engine.at(milliseconds(1), [client] { client->connect(8090); });
  // Two chunks: the split lands inside the pipelined request run so the
  // decode loop and the send queue overlap.
  const std::string wire = scenario_wire();
  const std::string first = wire.substr(0, wire.size() / 2);
  const std::string second = wire.substr(wire.size() / 2);
  engine.at(milliseconds(2), [client, first] { client->send(first); });
  engine.at(milliseconds(4), [client, second] { client->send(second); });

  EXPECT_TRUE(engine.run(std::chrono::seconds(120)))
      << "scenario did not quiesce\n" << engine.trace_text();
  server.stop();

  EXPECT_TRUE(client->peer_closed());
  EXPECT_TRUE(engine.failures().empty());
  return {client->received(), engine.trace()};
}

// body_suppressed flags for scenario_wire()'s responses.
std::vector<bool> scenario_body_suppressed() {
  // GET a, GET b, HEAD b (suppressed), 404, 304 (suppressed), GET b.
  return {false, false, true, false, true, false};
}

void check_scenario_responses(const RunResult& run) {
  std::vector<WireResponse> responses;
  std::string error;
  ASSERT_TRUE(split_responses(run.received, scenario_body_suppressed(),
                              responses, error))
      << error << "\nreceived:\n" << run.received;
  ASSERT_EQ(responses.size(), 6u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, small_file());
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[1].body, big_file());
  // HEAD: full header block with the real Content-Length, zero body bytes —
  // split_responses() above fails on any stray body bytes.
  EXPECT_EQ(responses[2].status, 200);
  EXPECT_EQ(responses[2].content_length, big_file().size());
  EXPECT_EQ(responses[3].status, 404);
  EXPECT_EQ(responses[4].status, 304);
  EXPECT_EQ(responses[5].status, 200);
  EXPECT_EQ(responses[5].body, big_file());
}

bool trace_mentions(const std::vector<std::string>& trace, const char* op) {
  for (const auto& line : trace) {
    if (line.find(op) != std::string::npos) return true;
  }
  return false;
}

// A write-fault storm: nearly every writev is cut short (possibly inside
// any iovec of the gather), preceded by EINTR/EAGAIN noise, over a channel
// whose capacity is far below the 2000-byte body.  The drain loop must
// resume mid-segment and still put every reply on the wire intact.
FaultPlan write_storm() {
  FaultPlan plan;
  plan.write_eintr = 0.30;
  plan.write_eagain = 0.30;
  plan.short_write = 0.90;
  plan.channel_capacity = 61;
  return plan;
}

class SendPathSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(SendPathSeedTest, WritevResumesMidSegmentUnderWriteStorm) {
  const auto seed = static_cast<uint64_t>(GetParam());
  auto run = run_scenario(seed, write_storm(), nserver::SendPath::kWritev);
  check_scenario_responses(run);
  EXPECT_TRUE(trace_mentions(run.trace, "writev"));
}

TEST_P(SendPathSeedTest, SendfileResumesPartialSends) {
  const auto seed = static_cast<uint64_t>(GetParam());
  // Threshold below b.bin's 2000 bytes: the two /b.bin GETs go out via
  // sendfile, in <=97-byte slices under the chaos capacity.
  auto run = run_scenario(seed, FaultPlan::chaos(),
                          nserver::SendPath::kSendfile,
                          /*sendfile_min_bytes=*/256);
  check_scenario_responses(run);
  EXPECT_TRUE(trace_mentions(run.trace, "sendfile"));
}

// The sendfile threshold sits below b.bin's 2000 bytes, so the sendfile
// runs move both /b.bin bodies with sendfile(2) while the writev runs
// gather them from the cache.
TEST_P(SendPathSeedTest, WritevAndSendfileProduceByteIdenticalStreams) {
  const auto seed = static_cast<uint64_t>(GetParam());
  auto writev = run_scenario(seed, FaultPlan::none(),
                             nserver::SendPath::kWritev);
  auto sendfile = run_scenario(seed, FaultPlan::none(),
                               nserver::SendPath::kSendfile,
                               /*sendfile_min_bytes=*/256);
  check_scenario_responses(writev);
  EXPECT_TRUE(trace_mentions(sendfile.trace, "sendfile"));
  ASSERT_EQ(writev.received.size(), sendfile.received.size())
      << "writev and sendfile reply streams differ in length";
  ASSERT_EQ(writev.received, sendfile.received);
}

TEST_P(SendPathSeedTest, WritevAndSendfileIdenticalUnderChaosToo) {
  const auto seed = static_cast<uint64_t>(GetParam());
  auto writev = run_scenario(seed, FaultPlan::chaos(),
                             nserver::SendPath::kWritev);
  auto sendfile = run_scenario(seed, FaultPlan::chaos(),
                               nserver::SendPath::kSendfile,
                               /*sendfile_min_bytes=*/256);
  check_scenario_responses(writev);
  EXPECT_TRUE(trace_mentions(sendfile.trace, "sendfile"));
  ASSERT_EQ(writev.received, sendfile.received);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SendPathSeedTest, ::testing::Range(1, 7),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cops::simnet
