// Shared machinery for the send-path benchmark (BENCH_send_path.json).
//
// One COPS-HTTP server per send_path mode (writev / sendfile) serves a
// cached-file-heavy workload with an occasional large sendfile-eligible
// request; the profiler's send-path counters turn into per-reply figures:
// how many reply bytes each mode materialises into owned buffers before the
// socket sees them, and how many it hands to sendfile(2).  Used by both the
// committed-baseline runner (micro_send_path) and the perf-smoke ctest.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "http/http_server.hpp"
#include "http/response.hpp"
#include "loadgen/http_client.hpp"
#include "nserver/options.hpp"

namespace cops::bench {

struct SendPathRow {
  std::string mode;
  double rps = 0.0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  uint64_t replies = 0;
  double bytes_copied_per_reply = 0.0;
  double sendfile_bytes_per_reply = 0.0;
  uint64_t writev_calls = 0;
};

// The gate both the baseline runner and the perf-smoke test apply: on this
// cached-file workload the writev path copies only each reply's header block
// (~200 B), never a body (32 KiB and up), so its bytes copied per reply must
// stay below this bound.
inline constexpr double kMaxWritevCopiedBytesPerReply = 1024.0;

struct SendPathBenchConfig {
  std::string docroot;
  double seconds = 1.5;
  size_t clients = 32;
  size_t small_files = 16;
  size_t small_file_bytes = 32 * 1024;
  // One file above the sendfile threshold: exercises the fd path in
  // send_path=sendfile and the cache path under writev.
  size_t big_file_bytes = 1024 * 1024;
  size_t sendfile_min_bytes = 256 * 1024;
  // Every Nth request fetches the big file; the rest hit the cached set.
  size_t big_every = 16;
  unsigned seed = 7;
};

inline SendPathBenchConfig send_path_quick_config(std::string docroot) {
  SendPathBenchConfig config;
  config.docroot = std::move(docroot);
  config.seconds = 0.4;
  config.clients = 8;
  config.small_files = 4;
  return config;
}

// Writes the benchmark file set: small_files cacheable files plus one large
// sendfile-eligible file.  Deterministic contents so reply streams are
// comparable across modes.
inline bool make_send_path_docroot(const SendPathBenchConfig& config) {
  std::string mkdir = "mkdir -p " + config.docroot;
  if (std::system(mkdir.c_str()) != 0) return false;
  for (size_t i = 0; i < config.small_files; ++i) {
    std::ofstream out(config.docroot + "/small" + std::to_string(i) + ".html",
                      std::ios::binary | std::ios::trunc);
    if (!out) return false;
    std::string chunk(config.small_file_bytes,
                      static_cast<char>('a' + (i % 26)));
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  }
  std::ofstream big(config.docroot + "/big.bin",
                    std::ios::binary | std::ios::trunc);
  if (!big) return false;
  std::string chunk(config.big_file_bytes, 'B');
  big.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  return big.good();
}

inline SendPathRow run_send_path_mode(const SendPathBenchConfig& config,
                                      const std::string& mode) {
  auto options = http::CopsHttpServer::default_options();
  options.profiling = true;
  options.send_path = mode == "sendfile" ? nserver::SendPath::kSendfile
                                         : nserver::SendPath::kWritev;
  options.sendfile_min_bytes = config.sendfile_min_bytes;
  http::HttpServerConfig server_config;
  server_config.doc_root = config.docroot;
  http::CopsHttpServer server(options, server_config);
  if (!server.start().is_ok()) return {};

  loadgen::ClientConfig load;
  load.server = net::InetAddress::loopback(server.port());
  load.num_clients = config.clients;
  load.requests_per_connection = 5;
  load.think_time = std::chrono::milliseconds(0);
  load.duration = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(config.seconds));
  load.connect_timeout = std::chrono::milliseconds(500);
  load.seed = config.seed;
  const size_t small_files = config.small_files;
  const size_t big_every = config.big_every;
  load.path_for = [small_files, big_every](size_t client_index,
                                           std::mt19937& rng) {
    if (big_every != 0 && rng() % big_every == 0) return std::string("/big.bin");
    const size_t pick = (client_index + rng()) % small_files;
    return "/small" + std::to_string(pick) + ".html";
  };

  // Warm-up populates the cache; deltas below exclude it from the counters.
  auto warm = load;
  warm.duration = std::chrono::milliseconds(150);
  loadgen::run_clients(warm);
  const auto before = server.server().profile();
  const auto stats = loadgen::run_clients(load);
  const auto after = server.server().profile();
  server.stop();

  SendPathRow row;
  row.mode = mode;
  row.rps = stats.throughput_rps();
  row.p50_us = stats.response_time.quantile_micros(0.5);
  row.p99_us = stats.response_time.quantile_micros(0.99);
  row.replies = after.replies_sent - before.replies_sent;
  row.writev_calls = after.send_writev_calls - before.send_writev_calls;
  if (row.replies > 0) {
    row.bytes_copied_per_reply =
        static_cast<double>(after.send_bytes_copied - before.send_bytes_copied) /
        static_cast<double>(row.replies);
    row.sendfile_bytes_per_reply =
        static_cast<double>(after.send_sendfile_bytes -
                            before.send_sendfile_bytes) /
        static_cast<double>(row.replies);
  }
  return row;
}

inline std::string send_path_rows_to_json(const std::vector<SendPathRow>& rows,
                                          bool quick) {
  std::string out = "{\n  \"benchmark\": \"send_path\",\n  \"quick\": ";
  out += quick ? "true" : "false";
  out += ",\n  \"rows\": [\n";
  char buf[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"rps\": %.1f, \"p50_us\": %lld, "
                  "\"p99_us\": %lld, \"replies\": %llu, "
                  "\"bytes_copied_per_reply\": %.1f, "
                  "\"sendfile_bytes_per_reply\": %.1f, "
                  "\"writev_calls\": %llu}%s\n",
                  row.mode.c_str(), row.rps,
                  static_cast<long long>(row.p50_us),
                  static_cast<long long>(row.p99_us),
                  static_cast<unsigned long long>(row.replies),
                  row.bytes_copied_per_reply, row.sendfile_bytes_per_reply,
                  static_cast<unsigned long long>(row.writev_calls),
                  i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

// Structural validation of the emitted JSON — the perf-smoke gate fails on a
// malformed file rather than committing garbage.  Checks balanced braces and
// brackets, the required keys, and that both modes are present.
inline bool validate_send_path_json(const std::string& text,
                                    std::string* error) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    if (braces < 0 || brackets < 0) {
      if (error) *error = "unbalanced close at offset " + std::to_string(i);
      return false;
    }
  }
  if (braces != 0 || brackets != 0 || in_string) {
    if (error) *error = "unbalanced braces/brackets/quotes";
    return false;
  }
  for (const char* key :
       {"\"benchmark\": \"send_path\"", "\"rows\"", "\"mode\": \"writev\"",
        "\"mode\": \"sendfile\"",
        "\"bytes_copied_per_reply\"", "\"rps\"", "\"p50_us\"", "\"p99_us\""}) {
    if (text.find(key) == std::string::npos) {
      if (error) *error = std::string("missing key ") + key;
      return false;
    }
  }
  return true;
}

// Satellite micro-assert: HttpResponse::serialize() must reserve the exact
// final size up front.  A geometric append-growth would leave capacity well
// above size for a large body; exact reserve leaves them equal.
inline bool serialize_reserves_exactly(std::string* error) {
  http::HttpResponse resp;
  resp.status = http::StatusCode::kOk;
  resp.set_header("Content-Type", "application/octet-stream");
  resp.body.assign(8u * 1024u * 1024u, 'x');
  const std::string wire = resp.serialize();
  if (wire.capacity() != wire.size()) {
    if (error) {
      *error = "serialize() reallocated: size=" + std::to_string(wire.size()) +
               " capacity=" + std::to_string(wire.capacity());
    }
    return false;
  }
  return true;
}

}  // namespace cops::bench
