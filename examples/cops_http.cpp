// COPS-HTTP — the paper's Web server as a runnable binary.
//
//   $ ./cops_http --root ./htdocs --port 8080
//   $ ./cops_http --root ./htdocs --port 8080 --cache lfu --profiling
//
// All twelve Table 1 options are reachable from the command line; the
// defaults are the paper's COPS-HTTP settings (one dispatcher, separate
// pool, async completions, static threads, 20 MB LRU cache).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "http/http_server.hpp"

namespace {

void usage() {
  std::puts(
      "cops_http --root DIR [--port N] [--dispatchers N] [--no-pool]\n"
      "          [--threads N] [--sync-completion] [--dynamic-threads]\n"
      "          [--cache lru|lfu|lru-min|lru-threshold|hyper-g|none]\n"
      "          [--cache-mb N] [--scheduling] [--overload] [--idle-ms N]\n"
      "          [--overload-mode watermark|adaptive] [--overload-target-ms N]\n"
      "          [--auto-index] [--debug] [--profiling] [--logging]\n"
      "          [--send-path copy|writev|sendfile] [--sendfile-min BYTES]\n"
      "          [--body-framing content_length|chunked] [--chunked-min BYTES]\n"
      "          [--accept-path dispatch|reuseport] [--backlog N]\n"
      "          [--l1-entries N] [--l1-max-bytes BYTES]\n"
      "          [--admin] [--admin-port N] [--run-seconds N]");
}

cops::nserver::CachePolicyKind parse_cache(const std::string& name) {
  using cops::nserver::CachePolicyKind;
  if (name == "lru") return CachePolicyKind::kLru;
  if (name == "lfu") return CachePolicyKind::kLfu;
  if (name == "lru-min") return CachePolicyKind::kLruMin;
  if (name == "lru-threshold") return CachePolicyKind::kLruThreshold;
  if (name == "hyper-g") return CachePolicyKind::kHyperG;
  return CachePolicyKind::kNone;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = cops::http::CopsHttpServer::default_options();
  cops::http::HttpServerConfig config;
  int run_seconds = 0;  // 0 = run forever

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--root") {
      config.doc_root = next();
    } else if (arg == "--port") {
      options.listen_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--dispatchers") {
      options.dispatcher_threads = std::atoi(next());
    } else if (arg == "--no-pool") {
      options.separate_processor_pool = false;
    } else if (arg == "--threads") {
      options.processor_threads = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--sync-completion") {
      options.completion = cops::nserver::CompletionMode::kSynchronous;
    } else if (arg == "--dynamic-threads") {
      options.thread_allocation = cops::nserver::ThreadAllocation::kDynamic;
    } else if (arg == "--cache") {
      options.cache_policy = parse_cache(next());
    } else if (arg == "--cache-mb") {
      options.cache_capacity_bytes =
          static_cast<size_t>(std::atol(next())) * 1024 * 1024;
    } else if (arg == "--scheduling") {
      options.event_scheduling = true;
    } else if (arg == "--overload") {
      options.overload_control = true;
    } else if (arg == "--overload-mode") {
      // S5: adaptive is a refinement of O9, so it implies overload_control.
      options.overload_control = true;
      options.overload_mode = std::string(next()) == "adaptive"
                                  ? cops::nserver::OverloadMode::kAdaptive
                                  : cops::nserver::OverloadMode::kWatermark;
    } else if (arg == "--overload-target-ms") {
      options.overload_target_delay =
          std::chrono::milliseconds(std::atoi(next()));
    } else if (arg == "--idle-ms") {
      options.shutdown_long_idle = true;
      options.idle_timeout = std::chrono::milliseconds(std::atoi(next()));
    } else if (arg == "--auto-index") {
      config.auto_index = true;
    } else if (arg == "--debug") {
      options.mode = cops::nserver::ServerMode::kDebug;
    } else if (arg == "--profiling") {
      options.profiling = true;
    } else if (arg == "--admin") {
      // O11+: admin/metrics endpoint; requires the profiler, so turn it on.
      options.profiling = true;
      options.stats_export = cops::nserver::StatsExport::kAdminHttp;
    } else if (arg == "--admin-port") {
      options.profiling = true;
      options.stats_export = cops::nserver::StatsExport::kAdminHttp;
      options.admin_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--send-path") {
      const std::string mode = next();
      options.send_path = mode == "copy" ? cops::nserver::SendPath::kCopy
                          : mode == "sendfile"
                              ? cops::nserver::SendPath::kSendfile
                              : cops::nserver::SendPath::kWritev;
    } else if (arg == "--sendfile-min") {
      options.sendfile_min_bytes = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--body-framing") {
      options.body_framing = std::string(next()) == "chunked"
                                 ? cops::nserver::BodyFraming::kChunked
                                 : cops::nserver::BodyFraming::kContentLength;
    } else if (arg == "--chunked-min") {
      options.chunked_min_bytes = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--accept-path") {
      // S6: one SO_REUSEPORT listener per shard vs the single-listener
      // dispatch hop.
      options.accept_path = std::string(next()) == "reuseport"
                                ? cops::nserver::AcceptPath::kReuseport
                                : cops::nserver::AcceptPath::kDispatch;
    } else if (arg == "--backlog") {
      options.listen_backlog = std::atoi(next());
    } else if (arg == "--l1-entries") {
      // Two-tier cache: per-shard L1 slots in front of the policy cache.
      options.cache_l1_entries = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--l1-max-bytes") {
      options.cache_l1_entry_max_bytes =
          static_cast<size_t>(std::atol(next()));
    } else if (arg == "--logging") {
      options.logging = true;
    } else if (arg == "--run-seconds") {
      run_seconds = std::atoi(next());
    } else {
      usage();
      return arg == "--help" ? 0 : 2;
    }
  }
  if (config.doc_root == ".") {
    std::fprintf(stderr, "note: serving the current directory; use --root\n");
  }

  cops::http::CopsHttpServer server(options, config);
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("COPS-HTTP listening on 127.0.0.1:%u (doc root %s)\n",
              server.port(), config.doc_root.c_str());
  if (server.admin_port() != 0) {
    std::printf("admin endpoint at http://%s:%u/stats\n",
                options.admin_host.c_str(), server.admin_port());
  }

  const auto report = [&] {
    if (!options.profiling) return;
    const auto snap = server.server().profile();
    std::printf("profile: %s\n", snap.to_string().c_str());
  };
  if (run_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(run_seconds));
    report();
    server.stop();
    return 0;
  }
  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(10));
    report();
  }
}
