// ledger_baseline_server — src/baseline's thread-per-connection server (the
// paper's Apache comparator, Figs 3-4) as a process the ledger can drive.
//
//   ledger_baseline_server --root DIR --port P [--run-seconds N]
//
// Serves until SIGTERM or the run time passes.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "baseline/threaded_server.hpp"

int main(int argc, char** argv) {
  cops::baseline::ThreadedServerConfig config;
  int run_seconds = 600;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      config.doc_root = argv[i + 1];
    } else if (arg == "--port") {
      config.port = static_cast<uint16_t>(std::atoi(argv[i + 1]));
    } else if (arg == "--run-seconds") {
      run_seconds = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "usage: ledger_baseline_server --root DIR --port P\n");
      return 2;
    }
  }
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  cops::baseline::ThreadedHttpServer server(config);
  const auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  const timespec wait{run_seconds, 0};
  sigtimedwait(&signals, nullptr, &wait);
  server.stop();
  return 0;
}
