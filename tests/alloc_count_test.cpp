// perf-smoke: allocation-counting gates on the request path.
//
// This TU provides the operator-new interposer (COPS_ALLOC_COUNTER_IMPLEMENT
// — tests only, never linked into the shipped libraries).  Guards the
// invariant the pooled request path rests on: the steady-state keep-alive
// decode loop performs ZERO heap allocations (and allocates zero bytes) per
// request.
#define COPS_ALLOC_COUNTER_IMPLEMENT
#include "bench/alloc_counter.hpp"

#include <any>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/buffer_pool.hpp"
#include "common/byte_buffer.hpp"
#include "http/request_parser.hpp"
#include "nserver/l1_cache.hpp"

namespace cops::bench {
namespace {

TEST(AllocCountTest, InterposerCountsThisThreadsAllocations) {
  reset_alloc_counters();
  {
    auto* p = new std::string(1024, 'x');  // forces a real heap block
    delete p;
  }
  const AllocCounters counters = alloc_counters();
  EXPECT_GE(counters.count, 1u);
  EXPECT_GE(counters.bytes, sizeof(std::string));
  reset_alloc_counters();
  EXPECT_EQ(alloc_counters().count, 0u);
}

TEST(AllocCountTest, CountersAreReadableFromAnotherThread) {
  // A multi-threaded server's allocations are summed by reading each
  // worker's counters from another thread while the worker allocates.
  // The owner writes with relaxed atomic stores, so these relaxed loads are
  // race-free (clean under the TSan preset) and each word reads monotone.
  std::atomic<AllocCounters*> published{nullptr};
  std::atomic<bool> done{false};
  AllocCounters final_counters;
  std::thread worker([&] {
    reset_alloc_counters();
    published.store(&alloc_counters(), std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) {
      char* volatile p = new char[256];
      delete[] p;
    }
    final_counters = alloc_counters();
  });
  AllocCounters* counters = nullptr;
  while ((counters = published.load(std::memory_order_acquire)) == nullptr) {
    std::this_thread::yield();
  }
  uint64_t count = 0;
  uint64_t bytes = 0;
  bool monotone = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count < 2000 && std::chrono::steady_clock::now() < deadline) {
    const uint64_t c = __atomic_load_n(&counters->count, __ATOMIC_RELAXED);
    const uint64_t b = __atomic_load_n(&counters->bytes, __ATOMIC_RELAXED);
    monotone = monotone && c >= count && b >= bytes;
    count = c;
    bytes = b;
  }
  done.store(true, std::memory_order_release);
  worker.join();
  EXPECT_TRUE(monotone);
  EXPECT_GE(count, 2000u);
  EXPECT_GE(final_counters.count, count);
  EXPECT_EQ(final_counters.bytes, final_counters.count * 256);
}

TEST(AllocCountTest, PooledRequestPathIsAllocationFree) {
  // What Server::run_decode does per keep-alive request, minus the Server:
  // the socket read appends to a connection buffer adopted from a
  // BufferPool, the request parses into the connection's scratch object,
  // Handle receives a pointer through the std::any, and the RequestContext
  // (here a stand-in of the same allocation shape) comes from a SlabPool.
  struct CtxStandIn {
    void* server = nullptr;
    std::shared_ptr<void> conn;
    int priority = 0;
  };
  const std::string wire =
      "GET /assets/app.css?v=3 HTTP/1.1\r\n"
      "Host: bench.example\r\n"
      "User-Agent: cops-bench/1.0\r\n"
      "Accept: text/css,*/*;q=0.1\r\n"
      "Accept-Encoding: identity\r\n"
      "Connection: keep-alive\r\n"
      "\r\n";
  auto ctx_pool = std::make_shared<SlabPool>(sizeof(CtxStandIn) + 128, 64);
  auto buffer_pool = std::make_shared<BufferPool>(16 * 1024);
  ByteBuffer in;
  in.adopt_storage(buffer_pool->acquire());
  http::HttpRequest scratch;
  size_t served = 0;
  auto one_request = [&] {
    in.append(wire);
    if (http::parse_request(in, scratch) != http::ParseOutcome::kComplete) {
      return false;
    }
    std::any request(&scratch);
    auto ctx =
        std::allocate_shared<CtxStandIn>(PoolAllocator<CtxStandIn>(ctx_pool));
    const auto& req = **std::any_cast<http::HttpRequest*>(&request);
    if (req.path == "/assets/app.css" && req.keep_alive() && ctx) ++served;
    return true;
  };
  for (int i = 0; i < 64; ++i) {  // warm every capacity in the cycle
    ASSERT_TRUE(one_request());
  }

  reset_alloc_counters();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(one_request());
  }
  const AllocCounters counters = alloc_counters();
  buffer_pool->release(in.release_storage());
  EXPECT_EQ(served, 2064u);
  EXPECT_EQ(counters.count, 0u)
      << counters.count << " allocations (" << counters.bytes
      << " bytes) leaked into the pooled keep-alive decode loop";
  EXPECT_EQ(counters.bytes, 0u);
}

TEST(AllocCountTest, ChunkedDecodeOnWarmScratchIsAllocationFree) {
  // The chunked decoder must ride the same zero-allocation pooled path as
  // Content-Length bodies: after warm-up the scratch request's body string
  // and header map have the capacity they need, the ChunkedDecoder itself
  // lives on the stack, and the in-buffer is recycled — so a steady-state
  // chunked request decodes without touching the heap.
  http::HttpRequest scratch;
  ByteBuffer in;
  const std::string wire =
      "POST /upload HTTP/1.1\r\n"
      "Host: bench\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "10\r\n0123456789abcdef\r\n"
      "8;ext=tok\r\nGHIJKLMN\r\n"
      "0\r\n"
      "X-Checksum: ignored\r\n"
      "\r\n";
  for (int i = 0; i < 32; ++i) {  // warm every capacity in the cycle
    in.append(wire);
    ASSERT_EQ(http::parse_request(in, scratch),
              http::ParseOutcome::kComplete);
    ASSERT_EQ(scratch.body, "0123456789abcdefGHIJKLMN");
  }
  ASSERT_TRUE(in.empty());

  reset_alloc_counters();
  for (int i = 0; i < 256; ++i) {
    in.append(wire);
    ASSERT_EQ(http::parse_request(in, scratch),
              http::ParseOutcome::kComplete);
  }
  const AllocCounters counters = alloc_counters();
  EXPECT_EQ(counters.count, 0u)
      << counters.count << " allocations (" << counters.bytes
      << " bytes) leaked into the steady-state chunked decode loop";
}

TEST(AllocCountTest, L1CacheHitPathIsAllocationFree) {
  // The scale-out design leans on the per-shard L1 hit being a hash, one
  // atomic<shared_ptr> load, a key compare, and two stamp checks — no heap.
  // A regression here (say, a string copy or a logging allocation sneaking
  // into lookup()) would put an allocator hot spot back on every cached
  // reply of every shard.
  nserver::L1FileCache l1(128, 256 * 1024,
                          std::chrono::milliseconds(60000));
  auto data = std::make_shared<nserver::FileData>();
  data->path = "/hot.txt";
  data->bytes.assign(4096, 'h');
  const std::string key = "/hot.txt";
  constexpr uint64_t kEpoch = 1;
  l1.promote(key, data, kEpoch);
  for (int i = 0; i < 16; ++i) {  // warm-up: the hit path, not first touch
    ASSERT_NE(l1.lookup(key, kEpoch), nullptr);
  }

  reset_alloc_counters();
  size_t served = 0;
  for (int i = 0; i < 4096; ++i) {
    auto hit = l1.lookup(key, kEpoch);
    if (hit != nullptr && hit->bytes.size() == 4096) ++served;
  }
  const AllocCounters counters = alloc_counters();
  EXPECT_EQ(served, 4096u);
  EXPECT_EQ(counters.count, 0u)
      << counters.count << " allocations (" << counters.bytes
      << " bytes) leaked into the L1 hit path";
}

}  // namespace
}  // namespace cops::bench
