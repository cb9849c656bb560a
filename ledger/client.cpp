// ledger_client — the load side of the COPS-HTTP ledger (see README.md).
//
//   ledger_client gen   --root DIR --manifest FILE --seed N
//       Writes every file the manifest lists ("url size" per line) under DIR
//       with bytes derived from the seed and the URL, and syncs them.
//
//   ledger_client setup --root DIR --manifest FILE --port P --reps K
//                       [--max-reps M] -- SERVER_BINARY ARGS...
//       Cold-starts the server until K starts saw no hypervisor steal (or
//       M starts were made); each time measures exec -> first correct reply
//       (GET of the manifest's first file) and the steal meanwhile, then
//       kills the server.
//
//   ledger_client load  --root DIR --manifest FILE --plan FILE --port P
//                       --mode keepalive|close|session [--per-conn N]
//                       --conns N --warmup-ms MS --seconds S [--max-seconds M]
//                       [--server-pid PID] [--signal-server] [--latencies FILE]
//       Closed loop, one epoll thread, no think time.  The plan lists
//       manifest indices; requests walk it in order, wrapping.  Every reply
//       is checked: status 200, Content-Length and body equal to the file on
//       disk, the Connection header, and who closes the connection.  With
//       --server-pid the server's /proc counters are read at both window
//       edges; --signal-server also sends it SIGUSR1 there (the traced
//       server prints a snapshot on that signal).  The window is cut into
//       100 ms slices, each with its replies, bytes, first latency sample,
//       and the CPU the hypervisor stole meanwhile (/proc/stat) and the
//       server used.  The window lasts until the slices in which nothing
//       was stolen add up to S seconds, or M seconds have passed.
//       --latencies writes every sample (int64 ns, completion order) so the
//       runner can pick slices.
//
// Every mode prints one JSON object on stdout.
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

extern char** environ;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ledger_client: %s\n", msg.c_str());
  std::exit(2);
}

int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> rest;  // after "--"

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = kv.find(key);
    if (it != kv.end()) return it->second;
    if (fallback.empty()) die("missing --" + key);
    return fallback;
  }
  long num(const std::string& key, const std::string& fallback = "") const {
    return std::stol(get(key, fallback));
  }
  bool flag(const std::string& key) const { return kv.count(key) != 0; }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--") {
      for (++i; i < argc; ++i) a.rest.emplace_back(argv[i]);
      break;
    }
    if (s.rfind("--", 0) != 0) die("unexpected argument " + s);
    s = s.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.kv[s] = argv[++i];
    } else {
      a.kv[s] = "1";
    }
  }
  return a;
}

// ---- file set ---------------------------------------------------------------

struct FileEntry {
  std::string url;
  size_t size = 0;
  const char* bytes = nullptr;  // mmap of the file as written by `gen`
};

std::vector<FileEntry> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read manifest " + path);
  std::vector<FileEntry> files;
  FileEntry e;
  while (in >> e.url >> e.size) files.push_back(e);
  if (files.empty()) die("empty manifest " + path);
  return files;
}

void map_files(const std::string& root, std::vector<FileEntry>& files) {
  for (auto& f : files) {
    const std::string path = root + f.url;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) die("cannot open " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || static_cast<size_t>(st.st_size) != f.size) {
      die("size mismatch for " + path);
    }
    void* p = ::mmap(nullptr, f.size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) die("mmap " + path);
    f.bytes = static_cast<const char*>(p);
  }
}

int cmd_gen(const Args& a) {
  const std::string root = a.get("root");
  const uint64_t seed = static_cast<uint64_t>(a.num("seed"));
  std::vector<uint64_t> block(1 << 16);
  for (const auto& f : read_manifest(a.get("manifest"))) {
    const std::string path = root + f.url;
    for (size_t slash = path.find('/', root.size() + 1);
         slash != std::string::npos; slash = path.find('/', slash + 1)) {
      ::mkdir(path.substr(0, slash).c_str(), 0755);
    }
    FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) die("cannot create " + path);
    const uint64_t key = splitmix64(seed ^ fnv1a(f.url));
    uint64_t word = 0;
    for (size_t done = 0; done < f.size;) {
      for (auto& w : block) w = splitmix64(key + word++);
      const size_t n = std::min(f.size - done, block.size() * sizeof(uint64_t));
      if (std::fwrite(block.data(), 1, n, out) != n) die("write " + path);
      done += n;
    }
    // Flushed to disk now, so that write-back does not run during a
    // measurement.
    if (std::fflush(out) != 0 || ::fsync(::fileno(out)) != 0 || std::fclose(out) != 0) {
      die("close " + path);
    }
  }
  std::printf("{\"ok\": true}\n");
  return 0;
}

// ---- HTTP reply checking ------------------------------------------------------

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

struct ReplyHead {
  int status = 0;
  long content_length = -1;
  std::string connection;  // lower-cased Connection header value
};

bool parse_head(const std::string& head, ReplyHead& out) {
  // "HTTP/1.1 200 OK\r\nName: value\r\n...\r\n\r\n"
  if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12) return false;
  out.status = std::atoi(head.c_str() + 9);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const size_t start = pos + 2;
    const size_t end = head.find("\r\n", start);
    if (end == std::string::npos || end == start) break;
    const size_t colon = head.find(':', start);
    if (colon != std::string::npos && colon < end) {
      const std::string name = lower(head.substr(start, colon - start));
      size_t v = colon + 1;
      while (v < end && head[v] == ' ') ++v;
      const std::string value = head.substr(v, end - v);
      if (name == "content-length") {
        out.content_length = std::atol(value.c_str());
      } else if (name == "connection") {
        out.connection = lower(value);
      }
    }
    pos = end;
  }
  return out.status != 0;
}

// ---- /proc sampling of the server ---------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

long status_field(const std::string& status, const std::string& name) {
  const size_t at = status.find(name + ":");
  return at == std::string::npos ? -1 : std::atol(status.c_str() + at + name.size() + 1);
}

// Fields of /proc/<pid>/stat after the parenthesised comm (1-based numbering
// of proc(5): field 14 is utime).
std::vector<std::string> stat_fields(const std::string& stat) {
  std::vector<std::string> fields;
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return fields;
  std::istringstream in(stat.substr(close + 2));
  std::string f;
  while (in >> f) fields.push_back(f);
  return fields;  // fields[0] is field 3 (state)
}

std::string proc_sample(long pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  const auto st = stat_fields(slurp(base + "/stat"));
  if (st.size() < 13) return "null";
  const std::string io = slurp(base + "/io");
  const std::string status = slurp(base + "/status");
  std::string out = "{\"utime_ticks\": " + st[11] + ", \"stime_ticks\": " + st[12] +
                    ", \"syscr\": " + std::to_string(status_field(io, "syscr")) +
                    ", \"syscw\": " + std::to_string(status_field(io, "syscw")) +
                    ", \"vm_hwm_kb\": " + std::to_string(status_field(status, "VmHWM")) +
                    ", \"tasks\": [";
  DIR* dir = ::opendir((base + "/task").c_str());
  bool first = true;
  while (dir != nullptr) {
    const dirent* ent = ::readdir(dir);
    if (ent == nullptr) break;
    if (ent->d_name[0] == '.') continue;
    const std::string t = base + "/task/" + ent->d_name;
    std::string comm = slurp(t + "/comm");
    if (!comm.empty() && comm.back() == '\n') comm.pop_back();
    for (auto& ch : comm) {
      if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) ch = '_';
    }
    const std::string tstatus = slurp(t + "/status");
    const std::string schedstat = slurp(t + "/schedstat");
    out += std::string(first ? "" : ", ") + "{\"tid\": " + ent->d_name +
           ", \"comm\": \"" + comm + "\", \"cpu_ns\": " +
           std::to_string(std::atoll(schedstat.c_str())) +
           ", \"vcsw\": " + std::to_string(status_field(tstatus, "voluntary_ctxt_switches")) +
           ", \"ivcsw\": " + std::to_string(status_field(tstatus, "nonvoluntary_ctxt_switches")) +
           "}";
    first = false;
  }
  if (dir != nullptr) ::closedir(dir);
  return out + "]}";
}

// Hypervisor steal over all CPUs (/proc/stat), in USER_HZ ticks.
int64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return v[7];
}

// CPU the server's threads have run, summed (/proc/<pid>/task/*/schedstat).
int64_t server_cpu_ns(long pid) {
  const std::string base = "/proc/" + std::to_string(pid) + "/task";
  int64_t total = 0;
  DIR* dir = ::opendir(base.c_str());
  while (dir != nullptr) {
    const dirent* ent = ::readdir(dir);
    if (ent == nullptr) break;
    if (ent->d_name[0] == '.') continue;
    total += std::atoll(slurp(base + "/" + ent->d_name + "/schedstat").c_str());
  }
  if (dir != nullptr) ::closedir(dir);
  return total;
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---- connections ---------------------------------------------------------------

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

std::string request_bytes(const std::string& url, bool close) {
  return "GET " + url + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
         (close ? "Connection: close\r\n" : "") + "\r\n";
}

enum class Mode { kKeepAlive, kClose, kSession };

struct Conn {
  int fd = -1;
  enum class State { kConnecting, kSending, kHead, kBody, kAwaitEof } state{};
  int file = -1;             // manifest index of the operation in flight
  const std::string* request = nullptr;
  size_t sent = 0;
  std::string head;
  ReplyHead reply;
  size_t body_done = 0;
  int64_t first_byte_ns = 0;  // request's first byte handed to the kernel
  int64_t last_byte_ns = 0;   // reply's last byte received
  int64_t deadline_ns = 0;    // the in-flight operation fails past this
  int on_conn = 0;            // replies completed on this connection
};

class Load {
 public:
  Load(const Args& a, std::vector<FileEntry> files, std::vector<int> plan)
      : files_(std::move(files)), plan_(std::move(plan)) {
    const std::string mode = a.get("mode");
    mode_ = mode == "keepalive" ? Mode::kKeepAlive
            : mode == "close"   ? Mode::kClose
            : mode == "session" ? Mode::kSession
                                : (die("unknown mode " + mode), Mode::kKeepAlive);
    per_conn_ = static_cast<int>(a.num("per-conn", "5"));
    port_ = static_cast<int>(a.num("port"));
    conns_.resize(static_cast<size_t>(a.num("conns", "4")));
    warmup_ns_ = a.num("warmup-ms", "1000") * 1'000'000;
    quiet_target_ns_ = static_cast<int64_t>(std::stod(a.get("seconds")) * 1e9);
    window_ns_ = static_cast<int64_t>(
        std::stod(a.get("max-seconds", a.get("seconds"))) * 1e9);
    server_pid_ = a.flag("server-pid") ? a.num("server-pid") : 0;
    signal_server_ = a.flag("signal-server");
    if (a.flag("latencies")) latencies_path_ = a.get("latencies");
    for (size_t i = 0; i < files_.size(); ++i) {
      requests_.push_back(request_bytes(files_[i].url, mode_ == Mode::kClose));
    }
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) die("epoll_create1");
    buf_.resize(256 * 1024);
    latencies_ns_.reserve(1 << 20);
  }

  int run() {
    const int64_t start = now_ns();
    for (size_t i = 0; i < conns_.size(); ++i) open_conn(i, start);
    window_start_ = start + warmup_ns_;
    window_end_ = window_start_ + window_ns_;
    std::vector<epoll_event> events(conns_.size() + 4);
    int64_t now = start;
    while (true) {
      if (phase_ == 0 && now >= window_start_) begin_window(now);
      if (phase_ == 1 && (now >= slice_end_ || now >= window_end_)) {
        close_slice(now);
        if (quiet_ns_ >= quiet_target_ns_ || now >= window_end_) {
          end_window(now);
        } else {
          open_slice(now);
          slice_end_ = now + kSliceNs;
        }
      }
      if (phase_ == 2 && (in_flight() == 0 || now >= drain_until_)) break;
      for (size_t i = 0; i < conns_.size() && phase_ != 2; ++i) {
        if (conns_[i].fd < 0) open_conn(i, now);
      }
      const int n = ::epoll_wait(epfd_, events.data(),
                                 static_cast<int>(events.size()), 5);
      now = now_ns();
      for (int i = 0; i < n; ++i) {
        on_ready(static_cast<size_t>(events[static_cast<size_t>(i)].data.u64), now);
      }
      if (now >= next_timeout_check_) {
        next_timeout_check_ = now + 50'000'000;
        for (size_t i = 0; i < conns_.size(); ++i) {
          if (conns_[i].fd >= 0 && now > conns_[i].deadline_ns) {
            fail(i, "timed out", false);
          }
        }
      }
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd >= 0 && conns_[i].file >= 0) {
        fail(i, "no reply before the drain deadline", false);
      }
      close_conn(i);
    }
    print_result();
    return 0;
  }

 private:
  static constexpr int64_t kOpTimeoutNs = 5'000'000'000;
  static constexpr int64_t kSliceNs = 100'000'000;

  // A 100 ms piece of the window: what completed in it, and how much CPU
  // the hypervisor stole from this machine and the server used meanwhile.
  struct Slice {
    int64_t start_ns = 0;
    uint64_t replies = 0;
    uint64_t body_bytes = 0;
    size_t first_latency = 0;  // index into latencies_ns_
    int64_t steal_start = 0, steal_ticks = 0;
    int64_t cpu_start = 0, server_cpu_ns = 0;
  };

  void open_slice(int64_t now) {
    Slice s;
    s.start_ns = now;
    s.first_latency = latencies_ns_.size();
    s.steal_start = steal_ticks();
    s.cpu_start = server_pid_ != 0 ? server_cpu_ns(server_pid_) : 0;
    slices_.push_back(s);
  }

  void close_slice(int64_t now) {
    Slice& s = slices_.back();
    s.steal_ticks = steal_ticks() - s.steal_start;
    if (s.steal_ticks == 0) quiet_ns_ += now - s.start_ns;
    if (server_pid_ != 0) s.server_cpu_ns = server_cpu_ns(server_pid_) - s.cpu_start;
  }

  size_t in_flight() const {
    size_t n = 0;
    for (const auto& c : conns_) n += c.fd >= 0 ? 1 : 0;
    return n;
  }

  void begin_window(int64_t now) {
    phase_ = 1;
    window_start_ = now;
    window_end_ = now + window_ns_;
    if (server_pid_ != 0) {
      proc_start_ = proc_sample(server_pid_);
      if (signal_server_) ::kill(static_cast<pid_t>(server_pid_), SIGUSR1);
    }
    cpu_start_ = self_cpu_s();
    open_slice(now);
    slice_end_ = now + kSliceNs;
  }

  void end_window(int64_t now) {
    phase_ = 2;
    window_end_ = now;
    cpu_end_ = self_cpu_s();
    if (server_pid_ != 0) {
      if (signal_server_) ::kill(static_cast<pid_t>(server_pid_), SIGUSR1);
      proc_end_ = proc_sample(server_pid_);
    }
    drain_until_ = now + 2'000'000'000;
    // Finish what is in flight, then stop: connections between requests
    // close now.
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].state == Conn::State::kConnecting) close_conn(i);
    }
  }

  void open_conn(size_t i, int64_t now) {
    Conn& c = conns_[i];
    c = Conn{};
    if (phase_ == 2) return;
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) die("socket: " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const sockaddr_in addr = loopback(port_);
    c.deadline_ns = now + kOpTimeoutNs;
    epoll_event ev{};
    ev.data.u64 = i;
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      ev.events = EPOLLIN;
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev);
      start_request(i, now);
    } else if (errno == EINPROGRESS) {
      c.state = Conn::State::kConnecting;
      ev.events = EPOLLOUT;
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev);
    } else {
      fail(i, "connect: " + std::string(std::strerror(errno)), false);
    }
  }

  void close_conn(size_t i) {
    Conn& c = conns_[i];
    if (c.fd >= 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
    }
    c.fd = -1;
    c.file = -1;
  }

  void start_request(size_t i, int64_t now) {
    Conn& c = conns_[i];
    c.file = plan_[cursor_++ % plan_.size()];
    c.request = &requests_[static_cast<size_t>(c.file)];
    c.sent = 0;
    c.head.clear();
    c.reply = ReplyHead{};
    c.body_done = 0;
    c.first_byte_ns = now;
    c.deadline_ns = now + kOpTimeoutNs;
    c.state = Conn::State::kSending;
    send_some(i);
  }

  void send_some(size_t i) {
    Conn& c = conns_[i];
    while (c.sent < c.request->size()) {
      const ssize_t n = ::send(c.fd, c.request->data() + c.sent,
                               c.request->size() - c.sent, MSG_NOSIGNAL);
      if (n > 0) {
        c.sent += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.u64 = i;
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
        return;
      } else {
        fail(i, "send: " + std::string(std::strerror(errno)), false);
        return;
      }
    }
    c.state = Conn::State::kHead;
  }

  void on_ready(size_t i, int64_t now) {
    Conn& c = conns_[i];
    if (c.fd < 0) return;
    if (c.state == Conn::State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        fail(i, "connect: " + std::string(std::strerror(err)), false);
        return;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
      start_request(i, now);
      return;
    }
    if (c.state == Conn::State::kSending) {
      send_some(i);
      if (c.state == Conn::State::kSending || c.fd < 0) return;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
    }
    while (c.fd >= 0) {
      const ssize_t n = ::recv(c.fd, buf_.data(), buf_.size(), 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        fail(i, "recv: " + std::string(std::strerror(errno)), false);
        return;
      }
      if (n == 0) {
        on_eof(i, now);
        return;
      }
      consume(i, buf_.data(), static_cast<size_t>(n), now);
    }
  }

  void on_eof(size_t i, int64_t now) {
    Conn& c = conns_[i];
    if (c.state == Conn::State::kAwaitEof) {
      credit(i);
      close_conn(i);
      open_conn(i, now);
      return;
    }
    fail(i, c.state == Conn::State::kHead && c.head.empty()
                ? "server closed the connection after " + std::to_string(c.on_conn) +
                      " replies"
                : "server closed the connection mid-reply",
         false);
  }

  void consume(size_t i, const char* data, size_t n, int64_t now) {
    Conn& c = conns_[i];
    while (n > 0 && c.fd >= 0) {
      if (c.state == Conn::State::kAwaitEof || c.state == Conn::State::kSending) {
        fail(i, "bytes beyond the reply", true);
        return;
      }
      if (c.state == Conn::State::kHead) {
        const size_t old = c.head.size();
        c.head.append(data, n);
        const size_t end = c.head.find("\r\n\r\n", old >= 3 ? old - 3 : 0);
        if (end == std::string::npos) {
          if (c.head.size() > 16384) fail(i, "reply head too long", true);
          return;
        }
        const size_t used = end + 4 - old;
        data += used;
        n -= used;
        c.head.resize(end + 4);
        if (!check_head(i)) return;
        c.state = Conn::State::kBody;
      }
      const FileEntry& f = files_[static_cast<size_t>(c.file)];
      const size_t take = std::min(n, f.size - c.body_done);
      if (take > 0 && std::memcmp(data, f.bytes + c.body_done, take) != 0) {
        fail(i, "body differs from " + f.url, true);
        return;
      }
      c.body_done += take;
      data += take;
      n -= take;
      if (c.body_done == f.size) body_done(i, now);
    }
  }

  bool check_head(size_t i) {
    Conn& c = conns_[i];
    const FileEntry& f = files_[static_cast<size_t>(c.file)];
    if (!parse_head(c.head, c.reply)) {
      fail(i, "unparsable reply head", true);
      return false;
    }
    if (c.reply.status != 200) {
      fail(i, "status " + std::to_string(c.reply.status) + " for " + f.url, true);
      return false;
    }
    if (c.reply.content_length != static_cast<long>(f.size)) {
      fail(i, "Content-Length " + std::to_string(c.reply.content_length) + " for " +
                  f.url + " of " + std::to_string(f.size) + " bytes",
           true);
      return false;
    }
    const bool want_close = mode_ == Mode::kClose;
    if (c.reply.connection != (want_close ? "close" : "keep-alive")) {
      fail(i, "Connection: " + c.reply.connection, true);
      return false;
    }
    return true;
  }

  // The reply's last byte is in.  A close-mode operation ends only when the
  // server has closed the connection too.
  void body_done(size_t i, int64_t now) {
    Conn& c = conns_[i];
    c.last_byte_ns = now;
    if (mode_ == Mode::kClose) {
      c.state = Conn::State::kAwaitEof;
      c.deadline_ns = now + kOpTimeoutNs;
      return;
    }
    credit(i);
    if (mode_ == Mode::kSession && c.on_conn < per_conn_ && phase_ != 2) {
      start_request(i, now);
    } else if (mode_ == Mode::kKeepAlive && phase_ != 2) {
      start_request(i, now);
    } else {
      close_conn(i);
      open_conn(i, now);
    }
  }

  // Counts a finished, checked operation; those that finish inside the
  // window are the measured ones.
  void credit(size_t i) {
    Conn& c = conns_[i];
    ++total_ok_;
    ++c.on_conn;
    if (phase_ == 1) {
      ++ok_;
      body_bytes_ += files_[static_cast<size_t>(c.file)].size;
      latencies_ns_.push_back(c.last_byte_ns - c.first_byte_ns);
      ++slices_.back().replies;
      slices_.back().body_bytes += files_[static_cast<size_t>(c.file)].size;
    }
    c.file = -1;
  }

  // `wrong` = a reply arrived but its content was wrong (an incorrect
  // output); otherwise the operation simply did not complete.
  // The connection is closed; the event loop opens a new one on its next
  // turn, so a connect that keeps failing cannot recurse or spin.
  void fail(size_t i, const std::string& why, bool wrong) {
    if (failures_ < 10) std::fprintf(stderr, "ledger_client: %s\n", why.c_str());
    ++failures_;
    if (phase_ == 1 && conns_[i].file >= 0) ++failed_;
    if (wrong) ++wrong_;
    close_conn(i);
  }

  void print_result() {
    if (!latencies_path_.empty()) {
      std::FILE* f = std::fopen(latencies_path_.c_str(), "wb");
      if (f == nullptr ||
          std::fwrite(latencies_ns_.data(), sizeof(int64_t), latencies_ns_.size(), f) !=
              latencies_ns_.size() ||
          std::fclose(f) != 0) {
        die("cannot write " + latencies_path_);
      }
    }
    std::sort(latencies_ns_.begin(), latencies_ns_.end());
    auto pct = [&](double q) {
      if (latencies_ns_.empty()) return 0.0;
      const size_t k = static_cast<size_t>(q * static_cast<double>(latencies_ns_.size() - 1));
      return static_cast<double>(latencies_ns_[k]) / 1e3;
    };
    const double window_s = static_cast<double>(window_end_ - window_start_) / 1e9;
    const uint64_t attempted = ok_ + failed_;
    // [duration_ns, replies, body_bytes, first_latency, steal_ticks,
    //  server_cpu_ns] per slice; latencies are listed in completion order.
    std::string slices;
    for (size_t k = 0; k < slices_.size(); ++k) {
      const Slice& sl = slices_[k];
      const int64_t end = k + 1 < slices_.size() ? slices_[k + 1].start_ns : window_end_;
      slices += std::string(k ? ", " : "") + "[" + std::to_string(end - sl.start_ns) +
                ", " + std::to_string(sl.replies) + ", " + std::to_string(sl.body_bytes) +
                ", " + std::to_string(sl.first_latency) + ", " +
                std::to_string(sl.steal_ticks) + ", " + std::to_string(sl.server_cpu_ns) + "]";
    }
    std::printf(
        "{\"window_s\": %.6f, \"attempted\": %llu, \"ok\": %llu, \"failed\": %llu, "
        "\"wrong\": %llu, \"failures_total\": %llu, \"total_ok\": %llu, "
        "\"body_bytes\": %llu, \"p50_us\": %.3f, \"p99_us\": %.3f, \"samples\": %zu, "
        "\"client_cpu_s\": %.6f, \"proc_start\": %s, \"proc_end\": %s, "
        "\"slice_s\": %.3f, \"slices\": [%s]}\n",
        window_s, static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(ok_), static_cast<unsigned long long>(failed_),
        static_cast<unsigned long long>(wrong_),
        static_cast<unsigned long long>(failures_),
        static_cast<unsigned long long>(total_ok_),
        static_cast<unsigned long long>(body_bytes_), pct(0.5), pct(0.99),
        latencies_ns_.size(), cpu_end_ - cpu_start_, proc_start_.c_str(),
        proc_end_.c_str(), static_cast<double>(kSliceNs) / 1e9, slices.c_str());
  }

  std::vector<FileEntry> files_;
  std::vector<int> plan_;
  std::vector<std::string> requests_;
  Mode mode_ = Mode::kKeepAlive;
  int per_conn_ = 5;
  int port_ = 0;
  std::vector<Conn> conns_;
  int epfd_ = -1;
  std::vector<char> buf_;
  size_t cursor_ = 0;

  int phase_ = 0;  // 0 warm-up, 1 measuring, 2 draining
  int64_t warmup_ns_ = 0, window_ns_ = 0;
  // The window ends once its slices without steal add up to the target
  // (or at window_ns_, whichever comes first).
  int64_t quiet_target_ns_ = 0, quiet_ns_ = 0;
  int64_t window_start_ = 0, window_end_ = 0, drain_until_ = 0;
  int64_t next_timeout_check_ = 0;
  long server_pid_ = 0;
  bool signal_server_ = false;
  std::string latencies_path_;  // window latencies, int64 ns, completion order
  std::string proc_start_ = "null", proc_end_ = "null";
  double cpu_start_ = 0, cpu_end_ = 0;

  uint64_t ok_ = 0, failed_ = 0, wrong_ = 0, failures_ = 0;
  uint64_t total_ok_ = 0, body_bytes_ = 0;
  std::vector<int64_t> latencies_ns_;
  std::vector<Slice> slices_;
  int64_t slice_end_ = 0;
};

std::vector<int> read_plan(const std::string& path, size_t files) {
  std::ifstream in(path);
  if (!in) die("cannot read plan " + path);
  std::vector<int> plan;
  int k = 0;
  while (in >> k) {
    if (k < 0 || static_cast<size_t>(k) >= files) die("plan index out of range");
    plan.push_back(k);
  }
  if (plan.empty()) die("empty plan " + path);
  return plan;
}

int cmd_load(const Args& a) {
  auto files = read_manifest(a.get("manifest"));
  map_files(a.get("root"), files);
  auto plan = read_plan(a.get("plan"), files.size());
  Load load(a, std::move(files), std::move(plan));
  return load.run();
}

// ---- cold start ----------------------------------------------------------------

// One blocking GET of `f` on a fresh connection; true when the reply is
// exactly right.  `-1` = nothing listens yet.
int try_get(int port, const FileEntry& f) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string req = request_bytes(f.url, true);
  std::string got;
  bool ok = ::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(req.size());
  char buf[65536];
  while (ok) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t end = got.find("\r\n\r\n");
  ReplyHead head;
  return ok && end != std::string::npos && parse_head(got.substr(0, end + 4), head) &&
                 head.status == 200 &&
                 head.content_length == static_cast<long>(f.size) &&
                 got.size() == end + 4 + f.size &&
                 std::memcmp(got.data() + end + 4, f.bytes, f.size) == 0
             ? 1
             : 0;
}

int cmd_setup(const Args& a) {
  auto files = read_manifest(a.get("manifest"));
  files.resize(1);
  map_files(a.get("root"), files);
  const int port = static_cast<int>(a.num("port"));
  const long quiet_wanted = a.num("reps");
  const long max_reps = a.num("max-reps", a.get("reps"));
  if (a.rest.empty()) die("setup needs -- SERVER ARGS...");
  std::vector<char*> argv;
  for (const auto& s : a.rest) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);

  std::string times, steals;
  long quiet = 0;
  for (long r = 0; r < max_reps && quiet < quiet_wanted; ++r) {
    const int64_t steal0 = steal_ticks();
    const int64_t t0 = now_ns();
    pid_t pid = 0;
    if (posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ) != 0) {
      die("cannot start " + a.rest[0]);
    }
    int result = -1;
    while (result < 0 && now_ns() - t0 < 10'000'000'000) {
      result = try_get(port, files[0]);
      if (result < 0) {
        const timespec pause{0, 100'000};
        nanosleep(&pause, nullptr);
      }
    }
    const int64_t t1 = now_ns();
    const int64_t stolen = steal_ticks() - steal0;
    quiet += stolen == 0 ? 1 : 0;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    if (result != 1) die("cold start " + std::to_string(r) + " gave no correct reply");
    char num[32];
    std::snprintf(num, sizeof(num), "%s%.6f", r == 0 ? "" : ", ",
                  static_cast<double>(t1 - t0) / 1e9);
    times += num;
    steals += (r == 0 ? "" : ", ") + std::to_string(stolen);
  }
  posix_spawn_file_actions_destroy(&actions);
  std::printf("{\"setup_s\": [%s], \"steal_ticks\": [%s]}\n", times.c_str(),
              steals.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: ledger_client gen|setup|load --help");
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  if (cmd == "gen") return cmd_gen(args);
  if (cmd == "setup") return cmd_setup(args);
  if (cmd == "load") return cmd_load(args);
  die("unknown command " + cmd);
}
