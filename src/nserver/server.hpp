// Server — the N-Server façade: everything the pattern template generates,
// assembled according to the twelve options.
//
// Structure (paper, Section IV):
//
//   Acceptor ── Reactor(s) [Event Dispatcher + decorated Event Sources]
//                  │ ready events
//                  ▼
//            EventProcessor  [queue (FIFO | quota-priority) + thread pool]
//                  │ Decode / Handle / Encode hook steps
//                  ▼
//            FileIoService   [proactor-emulated non-blocking file I/O]
//            FileCache       [transparent caching, 5 policies + custom]
//            OverloadController / ProcessorController / Profiler /
//            DebugTracer / idle reaper
//
// Option O1 (dispatcher threads) instantiates N reactors; connections are
// sharded round-robin and each shard's state is confined to its reactor
// thread (no locks on the connection path).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "net/acceptor.hpp"
#include "net/connector.hpp"
#include "net/reactor.hpp"
#include "nserver/connection.hpp"
#include "nserver/debug_trace.hpp"
#include "nserver/event_processor.hpp"
#include "nserver/file_cache.hpp"
#include "nserver/file_io_service.hpp"
#include "nserver/l1_cache.hpp"
#include "nserver/hooks.hpp"
#include "nserver/options.hpp"
#include "nserver/overload_control.hpp"
#include "nserver/overload_manager.hpp"
#include "nserver/processor_controller.hpp"
#include "nserver/profiler.hpp"
#include "nserver/request_context.hpp"
#include "nserver/stats.hpp"

namespace cops::nserver {

class AdminServer;

class Server {
 public:
  Server(ServerOptions options, std::shared_ptr<AppHooks> hooks);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the listener, starts dispatcher and processor threads.
  Status start();
  // Stops accepting, closes connections, joins every thread.  Idempotent.
  void stop();
  // Graceful shutdown: stops accepting, waits until every in-flight
  // request pipeline has resolved and drained (or `timeout` passes), then
  // stops.  Returns true when the server went idle before the timeout.
  bool drain(std::chrono::milliseconds timeout);

  // ---- observability ----------------------------------------------------
  [[nodiscard]] uint16_t port() const { return port_; }
  // The admin endpoint's bound port (O11+); 0 unless stats_export is on.
  [[nodiscard]] uint16_t admin_port() const { return admin_port_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] size_t connection_count() const { return num_connections_; }
  [[nodiscard]] bool accepting() const { return !accept_suspended_; }
  // True once drain() has begun (and until stop completes); /healthz
  // reports 503 while set so load balancers route around this instance.
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  // True while the O9 shed tier is rejecting requests (overload_shed on and
  // the overload controller reports overload).
  [[nodiscard]] bool shedding() const {
    return shedding_.load(std::memory_order_relaxed);
  }
  // The adaptive O9 control loop (overload_mode = kAdaptive); null in
  // watermark mode.  Exposed for the admin endpoint and tests.
  [[nodiscard]] OverloadManager* overload_manager() {
    return overload_mgr_.get();
  }
  [[nodiscard]] ProfilerSnapshot profile() const;
  // Everything the admin endpoint serves, in one consistent grab.
  [[nodiscard]] StatsSnapshot stats_snapshot() const;
  [[nodiscard]] FileCache* cache() { return cache_.get(); }
  [[nodiscard]] EventProcessor& processor() { return *processor_; }
  [[nodiscard]] FileIoService* file_service() { return file_service_.get(); }
  [[nodiscard]] DebugTracer* tracer() { return tracer_.get(); }

  // Installs the Custom cache-eviction hook (O6 = Custom) — must be called
  // before start().
  void set_custom_eviction_hook(CustomEvictionHook hook) {
    custom_eviction_ = std::move(hook);
  }

  // ---- Client Component (Acceptor-Connector's active side) ---------------
  // Initiates an outbound connection; once established it becomes a regular
  // Communicator driven by the same hooks and five-step pipeline (the
  // on_connect hook typically sends the first request).  `on_done` runs on
  // a dispatcher thread with the new connection id, or the failure.
  // Thread-safe; requires a started server.
  using ConnectCallback = std::function<void(Result<uint64_t>)>;
  void connect_peer(const net::InetAddress& peer, ConnectCallback on_done);

 private:
  friend class Connection;
  friend class RequestContext;
  friend class AdminServer;

  struct Shard {
    std::unique_ptr<net::Reactor> reactor;
    // Confined to the shard's reactor thread.
    std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections;
    // buffer_mgmt=pooled recyclers (null under per_request).  The shared_ptrs
    // are set once in start() and read-only afterwards; the pools themselves
    // are internally synchronized — contexts and buffers are released from
    // whichever thread drops the last reference.
    std::shared_ptr<SlabPool> ctx_pool;
    std::shared_ptr<BufferPool> read_buffer_pool;
    // Adaptive O9, SPED mode: when the next loop-lag probe timer is due
    // (ns since clock epoch, 0 = none scheduled).  Written by the shard's
    // reactor thread, read by the overload manager's overdue hint — while
    // the loop grinds through a long pass the timer can't fire, but
    // `now() - expected` is already the standing lag.
    std::atomic<int64_t> lag_probe_expected_ns{0};
    // Two-tier cache (cache_l1_entries > 0): this shard's read-mostly L1
    // in front of the shared policy cache.  Null when the L1 is off.
    std::unique_ptr<L1FileCache> l1_cache;
    // Per-shard gauges for /stats{,.json} (shard label): connections this
    // shard accepted (or was dispatched) and currently owns.  Updated on
    // accept/close paths, read by the admin endpoint — hence atomics.
    std::atomic<uint64_t> accepts{0};
    std::atomic<size_t> open_connections{0};
  };

  // Allocates a RequestContext — from the shard's slab free-list under
  // buffer_mgmt=pooled, from the heap under per_request.
  [[nodiscard]] RequestContextPtr make_context(
      const std::shared_ptr<Connection>& conn);

  // ---- accept path --------------------------------------------------------
  // Runs on the accepting shard's reactor: shard 0 under accept_path =
  // kDispatch (single listener), any shard under kReuseport (one listener
  // each — the connection then stays on `acceptor_shard`, no dispatch hop).
  void on_accept(size_t acceptor_shard, net::TcpSocket socket);
  // Applies accept suspension to every acceptor (the O9 lever).  Runs on
  // the shard-0 housekeeping thread; acceptors on other shards are
  // reactor-confined, so their suspend/resume is posted.
  void set_accept_suspended(bool on);
  // `ip_key` non-empty = this connection holds a per-IP accounting slot
  // (accepted with max_connections_per_ip on); released on removal.
  // `counted` = on_accept already reserved this connection's slot in
  // num_connections_ (the shard-safe cap check), so don't count it twice.
  uint64_t add_connection(size_t shard_index, net::TcpSocket socket,
                          std::string ip_key = {}, bool counted = false);

  // ---- pipeline steps (processor threads unless O2 = No) -----------------
  void submit_decode(const std::shared_ptr<Connection>& conn);
  void run_decode(const std::shared_ptr<Connection>& conn);
  void run_handle(const std::shared_ptr<Connection>& conn, std::any request,
                  int priority);
  // Called by RequestContext::reply — applies the Encode hook then sends.
  void resolve_with_reply(RequestContext& ctx, std::any response);

  // ---- services for RequestContext ---------------------------------------
  void fetch_file(RequestContextPtr ctx, std::string path,
                  RequestContext::FetchCallback done);

  // ---- housekeeping (reactor 0 timer) -------------------------------------
  void housekeeping();
  void reap_idle(Shard& shard);
  // Adaptive O9 setup/probing: build_overload_manager() wires the monitors
  // and graduated actions.  With a separate processor pool,
  // launch_overload_probes() sends one timestamped sentinel per tick through
  // the event queue so the queue-delay monitor measures real dispatch
  // latency.  In SPED mode nothing is ever queued, so each shard instead
  // runs a self-rescheduling timer whose lateness (scheduled vs. actual fire
  // time) is the event-loop lag a newly ready request experiences.
  void build_overload_manager();
  void launch_overload_probes();
  void schedule_loop_lag_probe(size_t shard_index, Duration interval);

  // Internal event accounting: debug trace (O10) + logging (O12).
  void note_event(EventKind kind, uint64_t conn_id, const char* detail);

  // Counts connections with an active pipeline step (reactor-confined
  // state, gathered by hopping onto each dispatcher).
  size_t count_active_pipelines();

  void remove_connection(Connection& conn);

  ServerOptions options_;
  std::shared_ptr<AppHooks> hooks_;

  std::vector<std::unique_ptr<Shard>> shards_;
  // One acceptor under kDispatch (on shard 0); one per shard under
  // kReuseport (acceptors_[i] is confined to shard i's reactor).
  std::vector<std::unique_ptr<net::Acceptor>> acceptors_;
  std::unique_ptr<net::Connector> connector_;  // lives on shard 0
  std::unique_ptr<EventProcessor> processor_;
  std::unique_ptr<ProcessorController> controller_;
  std::unique_ptr<FileIoService> file_service_;
  std::unique_ptr<FileCache> cache_;
  std::unique_ptr<OverloadController> overload_;
  std::unique_ptr<OverloadManager> overload_mgr_;
  // Owned by overload_mgr_; one per shard under SPED (event-loop lag),
  // one for the processor queue with a separate pool.
  std::vector<QueueDelayMonitor*> delay_monitors_;
  std::unique_ptr<DebugTracer> tracer_;
  std::unique_ptr<AdminServer> admin_;
  Profiler profiler_;
  CustomEvictionHook custom_eviction_;

  // Per-connection gauges for /stats.json.  The shard connection maps are
  // reactor-confined, so the admin path (shard-0 thread) cannot hop to the
  // other shards with a blocking future; this registry, maintained only when
  // stats_export is on, is the lock-guarded view it reads instead.
  mutable std::mutex conn_registry_mutex_;
  std::unordered_map<uint64_t, std::weak_ptr<Connection>> conn_registry_;

  // Per-client-IP open-connection counts (max_connections_per_ip).  Bumped
  // on the accept path (reactor 0) and released on whichever shard thread
  // closes the connection — hence the lock.
  std::mutex ip_counts_mutex_;
  std::unordered_map<std::string, size_t> ip_counts_;

  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> num_connections_{0};
  std::atomic<size_t> next_shard_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> launched_{false};  // dispatcher threads are running
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};  // drain() began; admin healthz → 503
  // Mirror of the overload controller's shed decision, updated by
  // housekeeping (reactor 0) and read by worker threads via
  // RequestContext::should_shed(): atomic, not a plain bool.
  std::atomic<bool> shedding_{false};
  // Written by housekeeping on the reactor-0 thread, read cross-thread via
  // accepting() (tests, admin endpoint): atomic, not a plain bool.
  std::atomic<bool> accept_suspended_{false};
  // Adaptive O9 tier-1 action: while set, reap_idle() runs with sharply
  // shrunk keep-alive timeouts (and runs even when O7 is off).
  std::atomic<bool> conserve_idle_{false};
};

}  // namespace cops::nserver
