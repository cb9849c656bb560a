#include "nserver/server.hpp"

#include <algorithm>
#include <future>

#include "common/logging.hpp"
#include "nserver/admin_server.hpp"

namespace cops::nserver {

Server::Server(ServerOptions options, std::shared_ptr<AppHooks> hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {}

Server::~Server() { stop(); }

Status Server::start() {
  if (started_.exchange(true)) {
    return Status::invalid_argument("server already started");
  }
  if (auto problem = options_.validate(); !problem.empty()) {
    return Status::invalid_argument(problem);
  }

  // --- components selected by the options (generation-time in CO2P3S) ----
  if (options_.mode == ServerMode::kDebug) {
    tracer_ = std::make_unique<DebugTracer>(options_.debug_trace_path);
  }
  if (options_.cache_policy != CachePolicyKind::kNone) {
    cache_ = std::make_unique<FileCache>(
        make_cache_policy(options_.cache_policy, options_.cache_size_threshold,
                          custom_eviction_),
        options_.cache_capacity_bytes);
    cache_->set_revalidate_interval(options_.cache_revalidate_interval);
  }
  if (options_.completion == CompletionMode::kAsynchronous) {
    file_service_ = std::make_unique<FileIoService>(options_.file_io_threads);
  }

  EventProcessorConfig pcfg;
  pcfg.name = "reactive";
  pcfg.threads = options_.separate_processor_pool
                     ? (options_.thread_allocation == ThreadAllocation::kDynamic
                            ? options_.min_processor_threads
                            : options_.processor_threads)
                     : 0;
  pcfg.scheduling = options_.event_scheduling;
  pcfg.priority_quotas = options_.priority_quotas;
  pcfg.profiler = options_.profiling ? &profiler_ : nullptr;
  processor_ = std::make_unique<EventProcessor>(pcfg);

  if (options_.thread_allocation == ThreadAllocation::kDynamic &&
      options_.separate_processor_pool) {
    ProcessorControllerConfig ccfg;
    ccfg.min_threads = options_.min_processor_threads;
    ccfg.max_threads = options_.max_processor_threads;
    controller_ = std::make_unique<ProcessorController>(*processor_, ccfg);
  }

  if (options_.overload_control &&
      options_.overload_mode == OverloadMode::kWatermark) {
    overload_ = std::make_unique<OverloadController>(
        options_.queue_high_watermark, options_.queue_low_watermark);
    overload_->set_shed(options_.overload_shed);
    overload_->watch_queue("reactive",
                           [this] { return processor_->queue_depth(); });
    if (file_service_) {
      overload_->watch_queue("file-io",
                             [this] { return file_service_->pending(); });
    }
  }

  // --- dispatchers (O1) ----------------------------------------------------
  const int n_reactors = options_.dispatcher_threads;
  for (int i = 0; i < n_reactors; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->reactor = std::make_unique<net::Reactor>();
    if (options_.buffer_mgmt == BufferMgmt::kPooled) {
      // Context objects are small; size the slab blocks to fit the object
      // plus shared_ptr control block with headroom, and recycle read-buffer
      // backing stores at the configured block size.
      shard->ctx_pool = std::make_shared<SlabPool>(
          sizeof(RequestContext) + 128, /*blocks_per_chunk=*/64);
      shard->read_buffer_pool =
          std::make_shared<BufferPool>(options_.read_buffer_block_bytes);
    }
    if (cache_ && options_.cache_l1_entries > 0) {
      shard->l1_cache = std::make_unique<L1FileCache>(
          options_.cache_l1_entries, options_.cache_l1_entry_max_bytes,
          options_.cache_revalidate_interval);
    }
    shards_.push_back(std::move(shard));
  }

  // --- adaptive overload manager (O9, overload_mode = kAdaptive) ----------
  // Built after the shards so the per-shard event-loop-lag monitors and
  // pool-counter lambdas bind to live objects.
  if (options_.overload_control &&
      options_.overload_mode == OverloadMode::kAdaptive) {
    build_overload_manager();
  }

  // --- connector (Client Component) on dispatcher 0 -------------------------
  connector_ = std::make_unique<net::Connector>(*shards_[0]->reactor);

  // --- acceptor(s) ---------------------------------------------------------
  // kDispatch: the classic single listener on dispatcher 0.  kReuseport:
  // one SO_REUSEPORT listener per shard, registered with that shard's
  // reactor (safe here — the loops have not started yet), so the kernel
  // spreads connections and each accept lands on its owning shard.  Shard
  // 0 binds first to resolve port 0; the rest join the resolved port.
  const bool reuseport = options_.accept_path == AcceptPath::kReuseport;
  const size_t n_acceptors = reuseport ? shards_.size() : 1;
  for (size_t i = 0; i < n_acceptors; ++i) {
    auto acceptor = std::make_unique<net::Acceptor>(
        *shards_[i]->reactor, [this, i](net::TcpSocket socket) {
          on_accept(i, std::move(socket));
        });
    auto addr_result = net::InetAddress::parse(
        options_.listen_host, i == 0 ? options_.listen_port : port_);
    if (!addr_result.is_ok()) return addr_result.status();
    auto status =
        acceptor->open(addr_result.value(), options_.listen_backlog, reuseport);
    if (!status.is_ok()) return status;
    if (i == 0) {
      auto bound = acceptor->local_address();
      if (!bound.is_ok()) return bound.status();
      port_ = bound.value().port();
    }
    acceptors_.push_back(std::move(acceptor));
  }

  // --- admin endpoint (O11+) on dispatcher 0 -------------------------------
  if (options_.stats_export == StatsExport::kAdminHttp) {
    admin_ = std::make_unique<AdminServer>(*this, *shards_[0]->reactor);
    auto admin_addr =
        net::InetAddress::parse(options_.admin_host, options_.admin_port);
    if (!admin_addr.is_ok()) return admin_addr.status();
    auto admin_status = admin_->open(admin_addr.value());
    if (!admin_status.is_ok()) return admin_status;
    admin_port_ = admin_->port();
  }

  // --- housekeeping on dispatcher 0 ----------------------------------------
  shards_[0]->reactor->run_after(options_.housekeeping_interval,
                                 [this] { housekeeping(); });

  // --- SPED event-loop-lag samplers (adaptive O9) ---------------------------
  // Inline processors never queue, so the admission signal is how late each
  // shard's loop runs its timers.  Sample at least twice per CoDel window so
  // the sliding min always has fresh readings to work with.
  if (overload_mgr_ && processor_->inline_mode()) {
    Duration probe_interval =
        std::min(options_.housekeeping_interval, options_.overload_interval / 2);
    if (probe_interval < std::chrono::milliseconds(1)) {
      probe_interval = std::chrono::milliseconds(1);
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      schedule_loop_lag_probe(i, probe_interval);
    }
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->reactor->start_thread("dispatch-" + std::to_string(i));
  }
  launched_.store(true);
  if (options_.logging) {
    COPS_INFO("N-Server listening on " << options_.listen_host << ":"
                                       << port_ << " with "
                                       << shards_.size() << " dispatcher(s)");
  }
  return Status::ok();
}

void Server::stop() {
  // A failed start() never launched the dispatchers; posting to them and
  // waiting on the future would deadlock.
  if (!launched_.load() || stopping_.exchange(true)) return;

  // Close acceptor + every connection on each shard's own thread.
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto& shard = *shards_[i];
    std::promise<void> done;
    auto fut = done.get_future();
    shard.reactor->post([this, i, &shard, &done] {
      if (i < acceptors_.size() && acceptors_[i]) acceptors_[i]->close();
      if (i == 0 && admin_) admin_->close();
      // close() mutates the map via remove_connection; copy first.
      std::vector<std::shared_ptr<Connection>> conns;
      conns.reserve(shard.connections.size());
      for (auto& [id, conn] : shard.connections) conns.push_back(conn);
      for (auto& conn : conns) conn->close("server-stop");
      done.set_value();
    });
    fut.wait();
  }
  for (auto& shard : shards_) {
    shard->reactor->stop();
    shard->reactor->join();
  }
  processor_->stop();
  if (file_service_) file_service_->stop();
  if (tracer_) tracer_->dump();
}

size_t Server::count_active_pipelines() {
  size_t total = 0;
  for (auto& shard_ptr : shards_) {
    auto& shard = *shard_ptr;
    std::promise<size_t> count;
    auto fut = count.get_future();
    shard.reactor->post([&shard, &count] {
      size_t active = 0;
      for (const auto& [id, conn] : shard.connections) {
        if (conn->pipeline_active()) ++active;
      }
      count.set_value(active);
    });
    total += fut.get();
  }
  return total;
}

bool Server::drain(std::chrono::milliseconds timeout) {
  if (!launched_.load() || stopping_.load()) return true;
  // Visible to the admin endpoint immediately: /healthz flips to 503 so
  // upstream health checks stop routing here while we finish in-flight work.
  draining_.store(true, std::memory_order_relaxed);
  // Step 1: no new connections — close every acceptor on its own shard.
  for (size_t i = 0; i < acceptors_.size(); ++i) {
    std::promise<void> done;
    auto fut = done.get_future();
    shards_[i]->reactor->post([this, i, &done] {
      if (acceptors_[i]) acceptors_[i]->close();
      done.set_value();
    });
    fut.wait();
  }
  // Step 2: wait for in-flight work to resolve.
  const auto deadline = now() + timeout;
  bool idle = false;
  while (now() < deadline) {
    const bool queues_empty =
        processor_->queue_depth() == 0 &&
        (!file_service_ || file_service_->pending() == 0);
    if (queues_empty && count_active_pipelines() == 0) {
      idle = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop();
  return idle;
}

// ---- accept path -----------------------------------------------------------

void Server::on_accept(size_t acceptor_shard, net::TcpSocket socket) {
  if (options_.max_connections != 0) {
    // Overload mechanism 1: bounded simultaneous connections.  Under
    // kReuseport accepts race on every shard, so the check must be a
    // reservation — increment first, roll back past the cap — rather than
    // a load that several shards could pass simultaneously.
    const size_t prev =
        num_connections_.fetch_add(1, std::memory_order_relaxed);
    if (prev >= options_.max_connections) {
      num_connections_.fetch_sub(1, std::memory_order_relaxed);
      if (options_.profiling) profiler_.count_reject();
      note_event(EventKind::kAccept, 0, "rejected-max-connections");
      return;  // socket destructor sends RST/close
    }
  }
  std::string ip_key;
  if (options_.max_connections_per_ip != 0) {
    if (auto addr = socket.peer_address(); addr.is_ok()) {
      ip_key = addr.value().host();
      std::lock_guard lock(ip_counts_mutex_);
      auto& count = ip_counts_[ip_key];
      if (count >= options_.max_connections_per_ip) {
        if (options_.max_connections != 0) {
          num_connections_.fetch_sub(1, std::memory_order_relaxed);
        }
        if (options_.profiling) profiler_.count_per_ip_reject();
        note_event(EventKind::kAccept, 0, "rejected-per-ip-cap");
        return;  // socket destructor sends RST/close
      }
      ++count;
    }
  }
  // kReuseport: the kernel already picked this shard's listener — the
  // connection stays local and the cross-thread dispatch hop disappears.
  // kDispatch: classic round-robin from the single shard-0 listener.
  const size_t shard_index =
      options_.accept_path == AcceptPath::kReuseport
          ? acceptor_shard
          : next_shard_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size();
  shards_[shard_index]->accepts.fetch_add(1, std::memory_order_relaxed);
  if (options_.profiling) profiler_.count_accept();
  const bool counted = options_.max_connections != 0;
  if (shard_index == acceptor_shard) {
    add_connection(shard_index, std::move(socket), std::move(ip_key), counted);
  } else {
    // Hand the socket to its shard's dispatcher thread.
    auto* raw = new net::TcpSocket(std::move(socket));
    shards_[shard_index]->reactor->post(
        [this, shard_index, raw, counted,
         ip_key = std::move(ip_key)]() mutable {
          net::TcpSocket sock(std::move(*raw));
          delete raw;
          add_connection(shard_index, std::move(sock), std::move(ip_key),
                         counted);
        });
  }
}

uint64_t Server::add_connection(size_t shard_index, net::TcpSocket socket,
                                std::string ip_key, bool counted) {
  const uint64_t id = next_conn_id_.fetch_add(1);
  auto& shard = *shards_[shard_index];
  auto conn = std::make_shared<Connection>(*this, *shard.reactor,
                                           std::move(socket), id, shard_index);
  conn->ip_key_ = std::move(ip_key);
  shard.connections.emplace(id, conn);
  if (options_.stats_export != StatsExport::kNone) {
    std::lock_guard lock(conn_registry_mutex_);
    conn_registry_.emplace(id, conn);
  }
  if (!counted) num_connections_.fetch_add(1);
  shard.open_connections.fetch_add(1, std::memory_order_relaxed);
  note_event(EventKind::kAccept, id, "accepted");
  if (options_.logging) {
    COPS_INFO("accepted connection " << id << " from " << conn->peer());
  }
  conn->start();
  return id;
}

void Server::connect_peer(const net::InetAddress& peer,
                          ConnectCallback on_done) {
  if (!launched_.load() || stopping_.load()) {
    on_done(Status::unavailable("server not running"));
    return;
  }
  // The Connector lives on dispatcher 0; hop there to initiate.
  shards_[0]->reactor->post([this, peer,
                             on_done = std::move(on_done)]() mutable {
    auto status = connector_->connect(
        peer,
        [this, on_done = std::move(on_done)](
            Result<net::TcpSocket> socket) mutable {
          if (!socket.is_ok()) {
            on_done(socket.status());
            return;
          }
          const size_t shard_index =
              next_shard_.fetch_add(1, std::memory_order_relaxed) %
              shards_.size();
          if (options_.profiling) profiler_.count_accept();
          if (shard_index == 0) {
            on_done(add_connection(0, std::move(socket).take()));
            return;
          }
          auto* raw = new net::TcpSocket(std::move(socket).take());
          shards_[shard_index]->reactor->post(
              [this, shard_index, raw, on_done = std::move(on_done)] {
                net::TcpSocket sock(std::move(*raw));
                delete raw;
                on_done(add_connection(shard_index, std::move(sock)));
              });
        });
    if (!status.is_ok()) on_done(status);
  });
}

void Server::set_accept_suspended(bool on) {
  // Acceptors are reactor-confined; this runs on the shard-0 housekeeping
  // thread, so shard 0's acceptor is adjusted inline and the others (one
  // per shard under kReuseport) get the flip posted to their own loops.
  for (size_t i = 0; i < acceptors_.size(); ++i) {
    auto* acceptor = acceptors_[i].get();
    if (i == 0) {
      if (on) {
        acceptor->suspend();
      } else {
        acceptor->resume();
      }
    } else {
      shards_[i]->reactor->post([acceptor, on] {
        if (on) {
          acceptor->suspend();
        } else {
          acceptor->resume();
        }
      });
    }
  }
  accept_suspended_ = on;
}

void Server::remove_connection(Connection& conn) {
  auto& shard = *shards_[conn.shard_index()];
  if (options_.stats_export != StatsExport::kNone) {
    std::lock_guard lock(conn_registry_mutex_);
    conn_registry_.erase(conn.id());
  }
  if (shard.connections.erase(conn.id()) > 0) {
    num_connections_.fetch_sub(1);
    shard.open_connections.fetch_sub(1, std::memory_order_relaxed);
    if (!conn.ip_key_.empty()) {
      std::lock_guard lock(ip_counts_mutex_);
      auto it = ip_counts_.find(conn.ip_key_);
      if (it != ip_counts_.end() && --it->second == 0) ip_counts_.erase(it);
    }
    if (options_.profiling) profiler_.count_close();
    if (options_.logging) {
      COPS_INFO("closed connection " << conn.id());
    }
    hooks_->on_close(conn.id());
  }
}

// ---- pipeline ---------------------------------------------------------------

RequestContextPtr Server::make_context(
    const std::shared_ptr<Connection>& conn) {
  if (options_.buffer_mgmt == BufferMgmt::kPooled) {
    const auto& pool = shards_[conn->shard_index()]->ctx_pool;
    if (pool) {
      // Object + control block in one slab block: the per-request context
      // allocation becomes a free-list pop.
      return std::allocate_shared<RequestContext>(
          PoolAllocator<RequestContext>(pool), *this, conn);
    }
  }
  return std::make_shared<RequestContext>(*this, conn);
}

void Server::submit_decode(const std::shared_ptr<Connection>& conn) {
  note_event(EventKind::kDecode, conn->id(), "queued");
  Event event;
  event.kind = EventKind::kDecode;
  event.priority = conn->priority();
  event.token = {conn->id(), conn->generation()};
  event.action = [this, conn] { run_decode(conn); };
  processor_->submit(std::move(event));
}

void Server::run_decode(const std::shared_ptr<Connection>& conn) {
  if (conn->closed()) return;
  DecodeResult result;
  RequestContextPtr ctx;
  if (options_.encode_decode) {
    ctx = make_context(conn);
    try {
      result = hooks_->decode(*ctx, conn->in_buffer());
    } catch (const std::exception& e) {
      COPS_WARN("decode hook threw: " << e.what());
      result = DecodeResult::error();
    }
  } else {
    // Fig. 2 variant: no Decode step — raw chunks go straight to Handle.
    // The chunk is never empty: Decode runs only after a read delivered
    // bytes or with bytes left over (Connection::continue_pipeline).
    result = DecodeResult::request_ready(conn->in_buffer().take_string());
  }

  switch (result.status) {
    case DecodeStatus::kNeedMore:
      conn->reactor().post([conn] { conn->resume_reading(); });
      return;
    case DecodeStatus::kError:
      if (options_.profiling) profiler_.count_decode_error();
      conn->reactor().post([conn] { conn->close("decode-error"); });
      return;
    case DecodeStatus::kReject:
      // Protocol-level rejection (400/413/501, ...): the carried response
      // goes through the normal Encode + Send path, then the connection
      // closes — deterministic for the peer, no parser desync for us.
      if (options_.profiling) profiler_.count_decode_error();
      note_event(EventKind::kEncode, conn->id(), "decode-reject");
      ctx->close_after_reply();
      ctx->reply(std::move(result.request));
      return;
    case DecodeStatus::kRequest:
      break;
  }

  if (options_.profiling) {
    profiler_.count_request();
    auto& trace = conn->trace();
    const int64_t now_us = trace_now_us();
    trace.decode_done_us.store(now_us, TraceContext::kRelaxed);
    profiler_.record_stage(Stage::kDecode,
                           TraceContext::elapsed(trace.read_done_us, now_us));
  }
  conn->note_request();
  conn->set_priority(result.priority);
  if (options_.event_scheduling) {
    // Scheduling generates a distinct Compute event so the priority queue
    // can reorder requests between Decode and Handle.
    note_event(EventKind::kCompute, conn->id(), "queued");
    Event event;
    event.kind = EventKind::kCompute;
    event.priority = result.priority;
    event.token = {conn->id(), conn->generation()};
    auto request = std::make_shared<std::any>(std::move(result.request));
    const int priority = result.priority;
    event.action = [this, conn, request, priority] {
      run_handle(conn, std::move(*request), priority);
    };
    processor_->submit(std::move(event));
  } else {
    run_handle(conn, std::move(result.request), result.priority);
  }
}

void Server::run_handle(const std::shared_ptr<Connection>& conn,
                        std::any request, int priority) {
  if (conn->closed()) return;
  note_event(EventKind::kCompute, conn->id(), "handle");
  if (options_.profiling) {
    conn->trace().handle_start_us.store(trace_now_us(),
                                        TraceContext::kRelaxed);
  }
  auto ctx = make_context(conn);
  ctx->priority_ = priority;
  try {
    hooks_->handle(*ctx, std::move(request));
  } catch (const std::exception& e) {
    COPS_WARN("handle hook threw: " << e.what());
    ctx->close();
  }
}

void Server::resolve_with_reply(RequestContext& ctx, std::any response) {
  if (!ctx.mark_resolved()) return;
  if (options_.profiling) {
    auto& trace = ctx.conn_->trace();
    const int64_t now_us = trace_now_us();
    trace.resolve_us.store(now_us, TraceContext::kRelaxed);
    profiler_.record_stage(
        Stage::kHandle, TraceContext::elapsed(trace.handle_start_us, now_us));
  }
  EncodedReply reply;
  if (options_.encode_decode) {
    note_event(EventKind::kEncode, ctx.conn_->id(), "encode");
    try {
      reply = hooks_->encode_reply(ctx, std::move(response));
    } catch (const std::exception& e) {
      COPS_WARN("encode hook threw: " << e.what());
      auto conn = ctx.conn_;
      conn->reactor().post([conn] { conn->close("encode-error"); });
      return;
    }
  } else {
    reply = EncodedReply::from_string(
        std::any_cast<std::string>(std::move(response)));
  }
  if (options_.profiling) {
    auto& trace = ctx.conn_->trace();
    const int64_t now_us = trace_now_us();
    trace.encode_done_us.store(now_us, TraceContext::kRelaxed);
    profiler_.record_stage(Stage::kEncode,
                           TraceContext::elapsed(trace.resolve_us, now_us));
  }
  auto conn = ctx.conn_;
  conn->reactor().post([conn, reply = std::move(reply)]() mutable {
    conn->queue_send(std::move(reply), /*completes_request=*/true);
  });
}

// ---- services ---------------------------------------------------------------

void Server::fetch_file(RequestContextPtr ctx, std::string path,
                        RequestContext::FetchCallback done) {
  // Two-tier lookup: the requesting connection's shard L1 first (lock-free,
  // allocation-free), then the shared policy L2.  An L2 hit is promoted
  // into this shard's L1, so after one shard's miss has filled the L2 every
  // shard warms its own L1 without cross-shard writes.
  L1FileCache* l1 = nullptr;
  if (cache_) {
    l1 = shards_[ctx->conn_->shard_index()]->l1_cache.get();
    if (l1) {
      if (auto hit = l1->lookup(path, cache_->invalidation_epoch())) {
        done(*ctx, std::move(hit));
        return;
      }
    }
    if (auto hit = cache_->lookup(path)) {
      if (l1) l1->promote(path, hit, cache_->invalidation_epoch());
      done(*ctx, std::move(hit));
      return;
    }
  }
  // send_path = sendfile: large cache misses come back as open descriptors
  // (drained by the connection with sendfile) instead of in-memory bytes;
  // they bypass the cache, which keeps holding the small, hot files.
  FileLoadOptions load;
  load.open_for_sendfile = options_.send_path == SendPath::kSendfile;
  load.sendfile_min_bytes = options_.sendfile_min_bytes;
  if (options_.completion == CompletionMode::kAsynchronous && file_service_) {
    CompletionToken token{ctx->conn_->id(), ctx->conn_->generation()};
    const int priority = ctx->priority();
    auto executor = [this, priority, token](std::function<void()> fn) {
      note_event(EventKind::kCompletion, token.connection_id, "file");
      Event event;
      event.kind = EventKind::kCompletion;
      event.priority = priority;
      event.token = token;
      event.action = std::move(fn);
      processor_->submit(std::move(event));
    };
    file_service_->async_load(
        path, load, token,
        [this, ctx, l1, path,
         done = std::move(done)](Result<FileDataPtr> result) {
          if (result.is_ok() && cache_ && result.value()->fd < 0) {
            cache_->insert(result.value()->path, result.value());
            if (l1) {
              l1->promote(path, result.value(),
                          cache_->invalidation_epoch());
            }
          }
          if (ctx->connection_closed()) return;  // stale completion token
          done(*ctx, std::move(result));
        },
        std::move(executor));
  } else {
    // Synchronous completions (O4): block this processor thread.
    auto result = FileIoService::load_file(path, load);
    if (result.is_ok() && cache_ && result.value()->fd < 0) {
      cache_->insert(path, result.value());
      if (l1) {
        l1->promote(path, result.value(), cache_->invalidation_epoch());
      }
    }
    done(*ctx, std::move(result));
  }
}

// ---- overload manager (adaptive O9) ------------------------------------------

void Server::build_overload_manager() {
  OverloadManagerConfig cfg;
  cfg.target_delay = options_.overload_target_delay;
  cfg.interval = options_.overload_interval;
  cfg.ewma_alpha = options_.overload_ewma_alpha;
  cfg.hysteresis = options_.overload_hysteresis;
  cfg.retry_after_min = options_.overload_retry_after;
  cfg.retry_after_max = options_.overload_retry_after_max;
  overload_mgr_ = std::make_unique<OverloadManager>(cfg);

  // Queue-delay monitors (the CoDel admission signal).  With a separate
  // processor pool the probe rides the event queue itself; in SPED mode
  // nothing is ever queued (submit runs inline), so each shard measures
  // event-loop lag instead — how late the loop fires a periodic timer
  // (see schedule_loop_lag_probe), which is exactly the delay a newly
  // ready request experiences.
  if (!processor_->inline_mode()) {
    delay_monitors_.push_back(
        overload_mgr_->add_queue_delay_monitor("queue_delay"));
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) {
      auto* monitor = overload_mgr_->add_queue_delay_monitor(
          "loop_delay_" + std::to_string(i));
      // A long pass starves the probe timer itself, so fold the pending
      // probe's overdue-ness into the window — the standing lag is visible
      // before the timer manages to fire.
      auto* shard = shards_[i].get();
      monitor->set_overdue_hint([shard] {
        const int64_t expected =
            shard->lag_probe_expected_ns.load(std::memory_order_relaxed);
        if (expected == 0) return 0.0;
        const int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now().time_since_epoch())
                .count();
        return now_ns > expected ? static_cast<double>(now_ns - expected) *
                                       1e-9
                                 : 0.0;
      });
      delay_monitors_.push_back(monitor);
    }
  }

  if (options_.max_connections > 0) {
    overload_mgr_->add_monitor(std::make_unique<GaugeMonitor>(
        "connections",
        [this] { return static_cast<double>(num_connections_.load()); },
        static_cast<double>(options_.max_connections)));
  }
  if (options_.buffer_mgmt == BufferMgmt::kPooled) {
    // A rising pool-miss fraction means the recyclers are growing — the
    // request path left its zero-allocation steady state.  50% misses in a
    // tick window maps to pressure 1.0.
    auto misses = [this] {
      uint64_t n = 0;
      for (const auto& shard : shards_) {
        if (shard->ctx_pool) n += shard->ctx_pool->misses();
        if (shard->read_buffer_pool) n += shard->read_buffer_pool->misses();
      }
      return n;
    };
    auto requests = [this] {
      uint64_t n = 0;
      for (const auto& shard : shards_) {
        if (shard->ctx_pool) {
          n += shard->ctx_pool->hits() + shard->ctx_pool->misses();
        }
        if (shard->read_buffer_pool) {
          n += shard->read_buffer_pool->hits() +
               shard->read_buffer_pool->misses();
        }
      }
      return n;
    };
    overload_mgr_->add_monitor(std::make_unique<RateMonitor>(
        "pool_miss_rate", std::move(misses), std::move(requests), 0.5));
  }
  if (options_.overload_max_heap_bytes > 0) {
    overload_mgr_->add_monitor(std::make_unique<GaugeMonitor>(
        "heap_bytes",
        [this] {
          uint64_t n = 0;
          for (const auto& shard : shards_) {
            if (shard->ctx_pool) n += shard->ctx_pool->heap_bytes();
            if (shard->read_buffer_pool) {
              n += shard->read_buffer_pool->heap_bytes();
            }
          }
          return static_cast<double>(n);
        },
        static_cast<double>(options_.overload_max_heap_bytes)));
  }

  // Graduated actions.  tick() runs from housekeeping on the reactor-0
  // thread, where the acceptor lives — suspend/resume need no hop.
  OverloadActions actions;
  actions.conserve = [this](bool on) {
    conserve_idle_.store(on, std::memory_order_relaxed);
    note_event(EventKind::kUser, 0,
               on ? "overload-conserve" : "overload-conserve-release");
  };
  actions.pause_low_priority = [this](bool on) {
    processor_->pause_low_priority(on);
    note_event(EventKind::kUser, 0,
               on ? "overload-pause-low-prio" : "overload-resume-low-prio");
  };
  actions.shed = [this](bool on) {
    shedding_.store(on, std::memory_order_relaxed);
    note_event(EventKind::kUser, 0,
               on ? "overload-shed" : "overload-shed-release");
  };
  actions.stop_accept = [this](bool on) {
    if (acceptors_.empty()) return;
    set_accept_suspended(on);
    if (on && options_.profiling) profiler_.count_overload_suspension();
    note_event(EventKind::kUser, 0,
               on ? "overload-suspend" : "overload-resume");
  };
  overload_mgr_->set_actions(std::move(actions));
}

void Server::launch_overload_probes() {
  if (processor_->inline_mode()) return;  // lag samplers self-schedule
  const auto t0 = now();
  Event probe;
  probe.kind = EventKind::kUser;
  probe.priority = 0;  // probes must not be parked by the tier-2 pause
  auto* monitor = delay_monitors_[0];
  probe.action = [monitor, t0] { monitor->record_delay(now() - t0); };
  processor_->submit(std::move(probe));
}

void Server::schedule_loop_lag_probe(size_t shard_index, Duration interval) {
  // A timer due at `expected` fires on the first poll pass after that
  // instant; every pass spent grinding through ready sockets pushes the
  // fire time out, so the lateness is exactly the standing loop lag.  A
  // one-off busy pass records one late sample that the sliding window's
  // min forgives; only sustained lag drives pressure up.
  auto* monitor = delay_monitors_[shard_index];
  const TimePoint expected = now() + interval;
  shards_[shard_index]->lag_probe_expected_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          expected.time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  shards_[shard_index]->reactor->run_after(
      interval, [this, shard_index, interval, monitor, expected] {
        if (stopping_.load()) return;
        monitor->record_delay(now() - expected);
        schedule_loop_lag_probe(shard_index, interval);
      });
}

// ---- housekeeping ------------------------------------------------------------

void Server::housekeeping() {
  if (stopping_.load()) return;

  if (overload_mgr_) {
    // Launch this tick's sentinel probes first (they record on a later
    // loop pass), then fold whatever has arrived into the control loop.
    launch_overload_probes();
    overload_mgr_->tick(now());
  }

  if (overload_ && !acceptors_.empty()) {
    switch (overload_->evaluate()) {
      case OverloadController::Decision::kSuspend:
        set_accept_suspended(true);
        if (options_.profiling) profiler_.count_overload_suspension();
        note_event(EventKind::kUser, 0, "overload-suspend");
        break;
      case OverloadController::Decision::kResume:
        set_accept_suspended(false);
        note_event(EventKind::kUser, 0, "overload-resume");
        break;
      case OverloadController::Decision::kNoChange:
        break;
    }
    // Shed tier (O9): mirror the controller's decision into the atomic the
    // worker threads read through RequestContext::should_shed().
    shedding_.store(overload_->should_shed(), std::memory_order_relaxed);
  }

  if (controller_) controller_->tick();

  if (options_.shutdown_long_idle || options_.header_read_timeout.count() > 0 ||
      conserve_idle_.load(std::memory_order_relaxed)) {
    reap_idle(*shards_[0]);
    for (size_t i = 1; i < shards_.size(); ++i) {
      auto* shard = shards_[i].get();
      shard->reactor->post([this, shard] { reap_idle(*shard); });
    }
  }

  shards_[0]->reactor->run_after(options_.housekeeping_interval,
                                 [this] { housekeeping(); });
}

void Server::reap_idle(Shard& shard) {
  // Adaptive O9 tier-1 action: under pressure, keep-alive connections are
  // a luxury — shrink the idle window to a quarter (floor 10ms) and reap
  // even when O7 is off.
  const bool conserve = conserve_idle_.load(std::memory_order_relaxed);
  auto idle_timeout = options_.idle_timeout;
  if (conserve) {
    idle_timeout = std::max(idle_timeout / 4,
                            std::chrono::milliseconds(10));
  }
  const bool reap_long_idle = options_.shutdown_long_idle || conserve;
  const auto idle_deadline = now() - idle_timeout;
  const bool slowloris = options_.header_read_timeout.count() > 0;
  const auto partial_deadline = now() - options_.header_read_timeout;
  std::vector<std::shared_ptr<Connection>> idle;
  std::vector<std::shared_ptr<Connection>> stalled;
  for (auto& [id, conn] : shard.connections) {
    if (conn->pipeline_active()) continue;
    // Slowloris defense: a connection stuck mid-request is judged against
    // the (shorter) header_read_timeout from the moment the partial request
    // began — last_activity() is irrelevant, since drip-feeding refreshes it.
    if (slowloris && conn->partial_since() != TimePoint{} &&
        conn->partial_since() < partial_deadline) {
      stalled.push_back(conn);
      continue;
    }
    if (reap_long_idle && conn->last_activity() < idle_deadline) {
      idle.push_back(conn);
    }
  }
  for (auto& conn : stalled) {
    if (options_.profiling) profiler_.count_header_timeout();
    conn->close("header-timeout");
  }
  for (auto& conn : idle) {
    if (options_.profiling) profiler_.count_idle_shutdown();
    conn->close("idle-timeout");
  }
}

// ---- misc ---------------------------------------------------------------------

void Server::note_event(EventKind kind, uint64_t conn_id, const char* detail) {
  if (tracer_) tracer_->record(kind, conn_id, detail);
}

ProfilerSnapshot Server::profile() const {
  auto snapshot = profiler_.snapshot(processor_ ? processor_->processed() : 0,
                                     cache_ ? cache_->hit_rate() : 0.0,
                                     cache_ ? cache_->invalidations() : 0);
  // buffer_mgmt=pooled recycler totals, summed over the per-shard pools.
  for (const auto& shard : shards_) {
    if (shard->ctx_pool) {
      snapshot.pool_hits += shard->ctx_pool->hits();
      snapshot.pool_misses += shard->ctx_pool->misses();
      snapshot.pool_alloc_bytes += shard->ctx_pool->heap_bytes();
    }
    if (shard->read_buffer_pool) {
      snapshot.pool_hits += shard->read_buffer_pool->hits();
      snapshot.pool_misses += shard->read_buffer_pool->misses();
      snapshot.pool_alloc_bytes += shard->read_buffer_pool->heap_bytes();
    }
    // Two-tier cache: sum the per-shard L1 tiers (zero with the L1 off).
    if (shard->l1_cache) {
      snapshot.l1_hits += shard->l1_cache->hits();
      snapshot.l1_misses += shard->l1_cache->misses();
      snapshot.l1_promotions += shard->l1_cache->promotions();
    }
  }
  if (const uint64_t total = snapshot.l1_hits + snapshot.l1_misses) {
    snapshot.l1_hit_rate =
        static_cast<double>(snapshot.l1_hits) / static_cast<double>(total);
  }
  return snapshot;
}

StatsSnapshot Server::stats_snapshot() const {
  StatsSnapshot s;
  s.counters = profile();
  s.connections_open = num_connections_.load();
  s.queue_depth = processor_ ? processor_->queue_depth() : 0;
  s.processor_threads = processor_ ? processor_->num_threads() : 0;
  s.file_io_pending = file_service_ ? file_service_->pending() : 0;
  if (overload_mgr_) {
    s.has_overload = true;
    s.overload = overload_mgr_->snapshot();
  }
  if (cache_) {
    s.has_cache = true;
    s.cache_hits = cache_->hits();
    s.cache_misses = cache_->misses();
    s.cache_evictions = cache_->evictions();
    s.cache_invalidations = cache_->invalidations();
    s.cache_bytes = cache_->size_bytes();
    s.cache_capacity_bytes = cache_->capacity_bytes();
    s.cache_entries = cache_->entry_count();
  }
  s.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto& shard = *shards_[i];
    ShardStats row;
    row.shard = i;
    row.accepts = shard.accepts.load(std::memory_order_relaxed);
    row.connections_open =
        shard.open_connections.load(std::memory_order_relaxed);
    if (shard.l1_cache) {
      row.l1_hits = shard.l1_cache->hits();
      row.l1_misses = shard.l1_cache->misses();
      row.l1_promotions = shard.l1_cache->promotions();
      row.l1_hit_rate = shard.l1_cache->hit_rate();
    }
    s.shards.push_back(row);
  }
  {
    std::lock_guard lock(conn_registry_mutex_);
    s.connections.reserve(conn_registry_.size());
    for (const auto& [id, weak] : conn_registry_) {
      auto conn = weak.lock();
      if (!conn || conn->closed()) continue;
      s.connections.push_back({id, conn->peer(), conn->bytes_read_total(),
                               conn->bytes_sent_total(),
                               conn->requests_total()});
    }
  }
  std::sort(s.connections.begin(), s.connections.end(),
            [](const ConnectionStats& a, const ConnectionStats& b) {
              return a.id < b.id;
            });
  return s;
}

}  // namespace cops::nserver
