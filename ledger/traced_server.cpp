// ledger_traced_server — COPS-HTTP with its application hooks timed.
//
//   ledger_traced_server --root DIR --port P [--run-seconds N]
//
// Builds an nserver::Server with CopsHttpServer::default_options() (plus
// profiling, for Server::profile()) around a wrapper AppHooks that forwards
// every call to http::HttpAppHooks and times it.  Heap allocations are
// counted by bench/alloc_counter.hpp.  Each SIGUSR1 prints one JSON snapshot
// line on stdout: cumulative counters, plus the medians of the stage
// timings recorded since the previous snapshot (accept-to-decode: since
// start, as keep-alive clients open few connections).  SIGTERM prints a
// last snapshot and stops the server.
#define COPS_ALLOC_COUNTER_IMPLEMENT
#include "bench/alloc_counter.hpp"

#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "http/http_server.hpp"
#include "nserver/request_context.hpp"

namespace {

using cops::nserver::AppHooks;
using cops::nserver::DecodeResult;
using cops::nserver::DecodeStatus;
using cops::nserver::RequestContext;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-linear histogram: exact below 64, then 32 sub-buckets per power of
// two (<= ~3% bucket error).  Lock-free.
class Histogram {
 public:
  void record(int64_t v) {
    if (v < 0) return;
    buckets_[index(static_cast<uint64_t>(v))].fetch_add(1, std::memory_order_relaxed);
  }

  // Median (bucket midpoint) of the values recorded since the previous
  // reset, and how many there were.
  std::pair<double, uint64_t> median(bool reset) {
    std::array<uint64_t, kBuckets> counts{};
    uint64_t total = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      counts[i] = reset ? buckets_[i].exchange(0, std::memory_order_relaxed)
                        : buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return {0.0, 0};
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (2 * seen >= total) return {midpoint(i), total};
    }
    return {0.0, total};
  }

 private:
  static constexpr size_t kBuckets = 64 + 58 * 32;

  static size_t index(uint64_t v) {
    if (v < 64) return static_cast<size_t>(v);
    const int e = 63 - std::countl_zero(v);  // >= 6
    return 64 + static_cast<size_t>(e - 6) * 32 +
           static_cast<size_t>((v >> (e - 5)) & 31);
  }
  static double midpoint(size_t i) {
    if (i < 64) return static_cast<double>(i);
    const int e = static_cast<int>((i - 64) / 32) + 6;
    const double width = static_cast<double>(uint64_t{1} << (e - 5));
    const double low = static_cast<double>(uint64_t{1} << e) +
                       static_cast<double>((i - 64) % 32) * width;
    return low + width / 2;
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

enum Stage { kDecode, kEncode, kQueueWait, kFetch, kAcceptToDecode, kStages };
constexpr const char* kStageNames[kStages] = {
    "decode_ns", "encode_ns", "queue_wait_ns", "fetch_ns", "accept_to_decode_ns"};

// Threads seen in each role, with their allocation counters.  A thread
// registers the first time it runs a hook (or, for the file-I/O pool, the
// file-open test hook); the counters are thread-local and live as long as
// the thread, which outlives every snapshot taken while the server runs.
enum Role { kDispatcher, kProcessor, kFileIo, kRoles };
constexpr const char* kRoleNames[kRoles] = {"dispatcher", "processor", "file_io"};

struct ThreadEntry {
  long tid;
  Role role;
  const cops::bench::AllocCounters* counters;
};

std::mutex g_threads_mu;
std::vector<ThreadEntry> g_threads;

void register_thread(Role role) {
  thread_local bool registered = false;
  if (registered) return;
  registered = true;
  std::lock_guard lock(g_threads_mu);
  g_threads.push_back({static_cast<long>(::syscall(SYS_gettid)), role,
                       &cops::bench::alloc_counters()});
}

// Per-connection stamps, indexed by connection id.  The framework runs at
// most one pipeline step per connection at a time, and ids are sequential,
// so 4096 slots never collide for the handful of connections the ledger
// keeps open.
struct Slot {
  std::atomic<uint64_t> conn{0};
  std::atomic<int64_t> connected_ns{0};    // on_connect, until first decode
  std::atomic<int64_t> decoded_ns{0};      // decode returned a request
  std::atomic<int64_t> handle_ns{0};       // handle entered
};

class TracedHooks : public AppHooks {
 public:
  explicit TracedHooks(std::shared_ptr<cops::http::HttpAppHooks> inner)
      : inner_(std::move(inner)) {}

  void on_connect(RequestContext& ctx) override {
    register_thread(kDispatcher);
    Slot& s = slot(ctx.connection_id());
    s.conn.store(ctx.connection_id(), std::memory_order_relaxed);
    s.connected_ns.store(now_ns(), std::memory_order_relaxed);
    inner_->on_connect(ctx);
  }

  void on_close(uint64_t connection_id) override { inner_->on_close(connection_id); }

  DecodeResult decode(RequestContext& ctx, cops::ByteBuffer& in) override {
    register_thread(kProcessor);
    const int64_t t0 = now_ns();
    Slot& s = slot(ctx.connection_id());
    const bool mine = s.conn.load(std::memory_order_relaxed) == ctx.connection_id();
    if (mine) {
      const int64_t connected = s.connected_ns.exchange(0, std::memory_order_relaxed);
      if (connected != 0) stages_[kAcceptToDecode].record(t0 - connected);
    }
    DecodeResult result = inner_->decode(ctx, in);
    const int64_t t1 = now_ns();
    stages_[kDecode].record(t1 - t0);
    decode_calls_.fetch_add(1, std::memory_order_relaxed);
    if (mine && result.status == DecodeStatus::kRequest) {
      s.decoded_ns.store(t1, std::memory_order_relaxed);
    }
    return result;
  }

  void handle(RequestContext& ctx, std::any request) override {
    register_thread(kProcessor);
    const int64_t t = now_ns();
    Slot& s = slot(ctx.connection_id());
    if (s.conn.load(std::memory_order_relaxed) == ctx.connection_id()) {
      const int64_t decoded = s.decoded_ns.exchange(0, std::memory_order_relaxed);
      if (decoded != 0) stages_[kQueueWait].record(t - decoded);
      s.handle_ns.store(t, std::memory_order_relaxed);
    }
    inner_->handle(ctx, std::move(request));
  }

  std::string encode(RequestContext& ctx, std::any response) override {
    return inner_->encode(ctx, std::move(response));
  }

  cops::EncodedReply encode_reply(RequestContext& ctx, std::any response) override {
    register_thread(kProcessor);
    const int64_t t0 = now_ns();
    Slot& s = slot(ctx.connection_id());
    if (s.conn.load(std::memory_order_relaxed) == ctx.connection_id()) {
      const int64_t entered = s.handle_ns.exchange(0, std::memory_order_relaxed);
      if (entered != 0) stages_[kFetch].record(t0 - entered);
    }
    auto reply = inner_->encode_reply(ctx, std::move(response));
    stages_[kEncode].record(now_ns() - t0);
    return reply;
  }

  uint64_t decode_calls() const { return decode_calls_.load(std::memory_order_relaxed); }
  Histogram& stage(Stage s) { return stages_[s]; }

 private:
  Slot& slot(uint64_t id) { return slots_[id % slots_.size()]; }

  std::shared_ptr<cops::http::HttpAppHooks> inner_;
  std::array<Slot, 4096> slots_{};
  std::array<Histogram, kStages> stages_{};
  std::atomic<uint64_t> decode_calls_{0};
};

void print_snapshot(const char* label, cops::nserver::Server& server, TracedHooks& hooks) {
  const auto profile = server.profile();
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  std::string threads[kRoles];
  {
    std::lock_guard lock(g_threads_mu);
    for (const auto& t : g_threads) {
      // The header's counters are plain thread-local integers, bumped by
      // their own thread only.  An atomic load of the aligned word sees the
      // value before or after a concurrent bump, which is all a snapshot
      // taken while requests run can promise anyway.
      allocs += __atomic_load_n(&t.counters->count, __ATOMIC_RELAXED);
      alloc_bytes += __atomic_load_n(&t.counters->bytes, __ATOMIC_RELAXED);
      threads[t.role] += (threads[t.role].empty() ? "" : ", ") + std::to_string(t.tid);
    }
  }
  std::string out = std::string("{\"snapshot\": \"") + label + "\"";
  out += ", \"replies_sent\": " + std::to_string(profile.replies_sent);
  out += ", \"decode_calls\": " + std::to_string(hooks.decode_calls());
  out += ", \"bytes_copied\": " + std::to_string(profile.send_bytes_copied);
  out += ", \"writev_calls\": " + std::to_string(profile.send_writev_calls);
  out += ", \"cache_hits\": " + std::to_string(server.cache() ? server.cache()->hits() : 0);
  out += ", \"cache_misses\": " +
         std::to_string(server.cache() ? server.cache()->misses() : 0);
  out += ", \"allocs\": " + std::to_string(allocs);
  out += ", \"alloc_bytes\": " + std::to_string(alloc_bytes);
  out += ", \"threads\": {";
  for (int r = 0; r < kRoles; ++r) {
    out += std::string(r ? ", " : "") + "\"" + kRoleNames[r] + "\": [" + threads[r] + "]";
  }
  out += "}, \"medians\": {";
  for (int s = 0; s < kStages; ++s) {
    const auto [median, n] =
        hooks.stage(static_cast<Stage>(s)).median(/*reset=*/s != kAcceptToDecode);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": [%.1f, %llu]", s ? ", " : "",
                  kStageNames[s], median, static_cast<unsigned long long>(n));
    out += buf;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  auto options = cops::http::CopsHttpServer::default_options();
  options.profiling = true;  // Server::profile() counters
  cops::http::HttpServerConfig config;
  int run_seconds = 600;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      config.doc_root = argv[i + 1];
    } else if (arg == "--port") {
      options.listen_port = static_cast<uint16_t>(std::atoi(argv[i + 1]));
    } else if (arg == "--run-seconds") {
      run_seconds = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "usage: ledger_traced_server --root DIR --port P\n");
      return 2;
    }
  }

  // Every thread the server starts inherits this mask, so the signals
  // arrive only at the sigtimedwait below.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGUSR1);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  cops::nserver::FileIoService::set_test_pre_open_hook(
      [](const std::string&) { register_thread(kFileIo); });
  auto hooks = std::make_shared<TracedHooks>(
      std::make_shared<cops::http::HttpAppHooks>(config));
  cops::nserver::Server server(options, hooks);
  const auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("{\"listening\": %u}\n", server.port());
  std::fflush(stdout);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(run_seconds);
  int taken = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const timespec wait{1, 0};
    const int sig = sigtimedwait(&signals, nullptr, &wait);
    if (sig == SIGUSR1) {
      print_snapshot(std::to_string(taken++).c_str(), server, *hooks);
    } else if (sig == SIGTERM || sig == SIGINT) {
      break;
    }
  }
  // Before stop(): the worker threads, and with them the allocation
  // counters, end there.
  print_snapshot("final", server, *hooks);
  server.stop();
  return 0;
}
