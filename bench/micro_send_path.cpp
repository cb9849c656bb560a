// Send-path micro-benchmark: writev vs sendfile reply paths on the same
// cached-file workload, persisted as BENCH_send_path.json.
//
//   micro_send_path [--quick] [--out PATH]
//
// Honours COPS_BENCH_QUICK=1 / COPS_BENCH_SECONDS like the figure benches.
// Exits non-zero when the emitted JSON fails validation, when writev copies
// more than a header block per reply, or when sendfile moves no bytes —
// the regression gates this baseline exists for.
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "send_path_harness.hpp"

int main(int argc, char** argv) {
  using namespace cops::bench;

  std::string out_path = "BENCH_send_path.json";
  BenchEnv env = bench_env();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      env.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  print_header("Send-path baseline (writev vs sendfile)",
               "Zero-copy reply path: bytes copied per reply and throughput "
               "per send_path mode.");

  std::string reserve_error;
  if (!serialize_reserves_exactly(&reserve_error)) {
    std::fprintf(stderr, "FAIL: %s\n", reserve_error.c_str());
    return 1;
  }

  SendPathBenchConfig config =
      env.quick ? send_path_quick_config("/tmp/cops_send_path_docroot")
                : SendPathBenchConfig{};
  if (!env.quick) {
    config.docroot = "/tmp/cops_send_path_docroot";
    config.seconds = env.seconds_per_point;
  }
  if (!make_send_path_docroot(config)) {
    std::fprintf(stderr, "FAIL: could not create docroot %s\n",
                 config.docroot.c_str());
    return 1;
  }

  std::vector<SendPathRow> rows;
  for (const char* mode : {"writev", "sendfile"}) {
    rows.push_back(run_send_path_mode(config, mode));
    const auto& row = rows.back();
    std::printf("  %-9s %9.1f req/s  p50 %6lld us  p99 %6lld us  "
                "%10.1f copied B/reply  %10.1f sendfile B/reply\n",
                row.mode.c_str(), row.rps,
                static_cast<long long>(row.p50_us),
                static_cast<long long>(row.p99_us),
                row.bytes_copied_per_reply, row.sendfile_bytes_per_reply);
    if (row.replies == 0) {
      std::fprintf(stderr, "FAIL: mode %s completed no replies\n",
                   row.mode.c_str());
      return 1;
    }
  }

  // The acceptance gates: the scatter-gather path copies only header
  // blocks, and the sendfile path really moves bytes through sendfile(2).
  const double writev_bytes = rows[0].bytes_copied_per_reply;
  if (!(writev_bytes < kMaxWritevCopiedBytesPerReply)) {
    std::fprintf(stderr,
                 "FAIL: writev copied %.1f B/reply (want < %.0f, the header "
                 "block only)\n",
                 writev_bytes, kMaxWritevCopiedBytesPerReply);
    return 1;
  }
  if (!(rows[1].sendfile_bytes_per_reply > 0.0)) {
    std::fprintf(stderr, "FAIL: sendfile moved no bytes through sendfile(2)\n");
    return 1;
  }

  const std::string json = send_path_rows_to_json(rows, env.quick);
  std::string json_error;
  if (!validate_send_path_json(json, &json_error)) {
    std::fprintf(stderr, "FAIL: malformed JSON: %s\n", json_error.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  if (!out.good()) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
