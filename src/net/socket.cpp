#include "net/socket.hpp"

#include <csignal>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>

#include "net/transport.hpp"

namespace cops::net {
namespace {

// Kernel-ABI shims: identical return-value/errno semantics whether the fd
// is real or simulated, so every retry/short-I/O code path above runs
// unchanged under simulation.  The sim branch is a constant compare on a
// register value — never taken in production.

ssize_t sys_read(int fd, void* buf, size_t len) {
  if (is_sim_fd(fd)) [[unlikely]] {
    const SysResult r = sim_backend()->sim_read(fd, buf, len);
    errno = r.err;
    return r.n;
  }
  return ::read(fd, buf, len);
}

ssize_t sys_send(int fd, const void* buf, size_t len) {
  if (is_sim_fd(fd)) [[unlikely]] {
    const SysResult r = sim_backend()->sim_write(fd, buf, len);
    errno = r.err;
    return r.n;
  }
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

ssize_t sys_writev(int fd, const struct iovec* iov, int iovcnt) {
  if (is_sim_fd(fd)) [[unlikely]] {
    const SysResult r = sim_backend()->sim_writev(fd, iov, iovcnt);
    errno = r.err;
    return r.n;
  }
  // sendmsg rather than writev: scatter-gather with MSG_NOSIGNAL, matching
  // the EPIPE (not SIGPIPE) semantics of the sys_send path.
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

ssize_t sys_sendfile(int out_fd, int in_fd, uint64_t offset, size_t count) {
  if (is_sim_fd(out_fd)) [[unlikely]] {
    const SysResult r = sim_backend()->sim_sendfile(out_fd, in_fd, offset,
                                                    count);
    errno = r.err;
    return r.n;
  }
  // sendfile has no MSG_NOSIGNAL equivalent: a peer reset between the poll
  // and the call would raise SIGPIPE and kill the process.  Ignore it once,
  // process-wide; every other send path already opts out per call.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { std::signal(SIGPIPE, SIG_IGN); });
  off_t off = static_cast<off_t>(offset);
  return ::sendfile(out_fd, in_fd, &off, count);
}

int sys_accept(int fd) {
  if (is_sim_fd(fd)) [[unlikely]] {
    // A signal interrupting accept is not a failure: retry so the simnet
    // accept_eintr fault resolves within one dispatch instead of bouncing
    // back through the reactor.
    for (;;) {
      const SysResult r = sim_backend()->sim_accept(fd);
      if (r.n < 0 && r.err == EINTR) continue;
      errno = r.err;
      return static_cast<int>(r.n);
    }
  }
  int client;
  do {
    client = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (client < 0 && errno == EINTR);
  return client;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    if (is_sim_fd(fd_)) [[unlikely]] {
      if (auto* sim = sim_backend()) sim->sim_close(fd_);
    } else {
      ::close(fd_);
    }
    fd_ = -1;
  }
}

Status set_nonblocking(int fd) {
  if (is_sim_fd(fd)) return Status::ok();  // sim fds are always non-blocking
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::from_errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::from_errno("fcntl(F_SETFL)");
  }
  return Status::ok();
}

Result<TcpSocket> TcpSocket::connect(const InetAddress& peer) {
  if (auto* sim = sim_backend()) {
    auto fd = sim->sim_connect(peer);
    if (!fd.is_ok()) return fd.status();
    return TcpSocket(Fd(fd.value()));
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Status::from_errno("socket");
  const auto& raw = peer.raw();
  const int rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&raw),
                           sizeof(raw));
  if (rc == 0) return TcpSocket(std::move(fd));
  // EINTR on a non-blocking connect means the attempt continues
  // asynchronously (POSIX) — same handling as EINPROGRESS, not a failure.
  if (errno == EINPROGRESS || errno == EINTR) {
    TcpSocket sock(std::move(fd));
    // Caller must wait for writability; signal with kWouldBlock... but we
    // still need to hand the socket back.  Convention: return the socket;
    // callers treat a valid socket whose connect may be pending uniformly
    // and call finish_connect() on writability.
    return sock;
  }
  return Status::from_errno("connect");
}

Status TcpSocket::finish_connect() const {
  if (is_sim_fd(fd_.get())) return Status::ok();  // sim connects are instant
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return Status::from_errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    errno = err;
    return Status::from_errno("connect");
  }
  return Status::ok();
}

Result<size_t> TcpSocket::read(ByteBuffer& buf, size_t max_bytes) {
  uint8_t* dst = buf.prepare(max_bytes);
  ssize_t n;
  do {
    n = sys_read(fd_.get(), dst, max_bytes);
    // A signal interrupting the read is not an error and not would-block:
    // retry immediately (there may be bytes waiting behind the EINTR).
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    buf.commit(static_cast<size_t>(n));
    return static_cast<size_t>(n);
  }
  buf.commit(0);
  if (n == 0) return Status::closed();
  if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::would_block();
  if (errno == ECONNRESET) return Status::closed();
  return Status::from_errno("read");
}

Result<size_t> TcpSocket::write(ByteBuffer& buf) {
  size_t total = 0;
  while (buf.readable() > 0) {
    const ssize_t n = sys_send(fd_.get(), buf.read_ptr(), buf.readable());
    if (n > 0) {
      buf.consume(static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;  // interrupted, nothing sent: retry
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (total > 0) return total;
      return Status::would_block();
    }
    if (errno == EPIPE || errno == ECONNRESET) return Status::closed();
    return Status::from_errno("send");
  }
  return total;
}

Result<size_t> TcpSocket::write(std::string_view data) {
  ssize_t n;
  do {
    n = sys_send(fd_.get(), data.data(), data.size());
  } while (n < 0 && errno == EINTR);
  if (n >= 0) return static_cast<size_t>(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::would_block();
  if (errno == EPIPE || errno == ECONNRESET) return Status::closed();
  return Status::from_errno("send");
}

Result<size_t> TcpSocket::writev(const struct iovec* iov, int iovcnt) {
  ssize_t n;
  do {
    n = sys_writev(fd_.get(), iov, iovcnt);
  } while (n < 0 && errno == EINTR);
  if (n > 0) return static_cast<size_t>(n);
  if (n == 0) return Status::would_block();  // zero-length gather
  if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::would_block();
  if (errno == EPIPE || errno == ECONNRESET) return Status::closed();
  return Status::from_errno("sendmsg");
}

Result<size_t> TcpSocket::sendfile_from(int in_fd, uint64_t offset,
                                        size_t count) {
  ssize_t n;
  do {
    n = sys_sendfile(fd_.get(), in_fd, offset, count);
  } while (n < 0 && errno == EINTR);
  if (n > 0) return static_cast<size_t>(n);
  // 0 from sendfile means the file ended short of `count` (truncated since
  // open); would-block keeps the caller's drain loop from spinning, and the
  // queue length check upstream bounds the retry.
  if (n == 0) return Status::io_error("sendfile: unexpected EOF");
  if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::would_block();
  if (errno == EPIPE || errno == ECONNRESET) return Status::closed();
  return Status::from_errno("sendfile");
}

Status TcpSocket::set_nodelay(bool on) {
  if (is_sim_fd(fd_.get())) return Status::ok();
  const int flag = on ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) <
      0) {
    return Status::from_errno("setsockopt(TCP_NODELAY)");
  }
  return Status::ok();
}

void TcpSocket::shutdown_write() {
  if (is_sim_fd(fd_.get())) {
    if (auto* sim = sim_backend()) sim->sim_shutdown_write(fd_.get());
    return;
  }
  ::shutdown(fd_.get(), SHUT_WR);
}

Result<InetAddress> TcpSocket::local_address() const {
  if (is_sim_fd(fd_.get())) {
    return sim_backend()->sim_local_address(fd_.get());
  }
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::from_errno("getsockname");
  }
  return InetAddress(addr);
}

Result<InetAddress> TcpSocket::peer_address() const {
  if (is_sim_fd(fd_.get())) {
    return sim_backend()->sim_peer_address(fd_.get());
  }
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::from_errno("getpeername");
  }
  return InetAddress(addr);
}

Result<TcpListener> TcpListener::listen(const InetAddress& addr, int backlog,
                                        bool reuseport) {
  if (auto* sim = sim_backend()) {
    auto fd = sim->sim_listen(addr, backlog, reuseport);
    if (!fd.is_ok()) return fd.status();
    return TcpListener(Fd(fd.value()));
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Status::from_errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) {
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
        0) {
      return Status::from_errno("setsockopt(SO_REUSEPORT)");
    }
  }
  const auto& raw = addr.raw();
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&raw), sizeof(raw)) <
      0) {
    return Status::from_errno("bind");
  }
  if (::listen(fd.get(), backlog) < 0) return Status::from_errno("listen");
  return TcpListener(std::move(fd));
}

Result<TcpSocket> TcpListener::accept() {
  const int client = sys_accept(fd_.get());
  if (client >= 0) return TcpSocket(Fd(client));
  if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::would_block();
  // EINTR is retried inside sys_accept; ECONNABORTED means the peer gave up
  // while queued — nothing to do, keep draining.
  if (errno == ECONNABORTED) return Status::would_block();
  // Descriptor exhaustion is recoverable (the Acceptor sheds the pending
  // connection via its reserve descriptor); mark it so callers can tell it
  // apart from fatal listener errors.
  if (errno == EMFILE || errno == ENFILE) {
    return Status::resource_exhausted("accept: out of file descriptors");
  }
  return Status::from_errno("accept");
}

Result<InetAddress> TcpListener::local_address() const {
  if (is_sim_fd(fd_.get())) {
    return sim_backend()->sim_local_address(fd_.get());
  }
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::from_errno("getsockname");
  }
  return InetAddress(addr);
}

}  // namespace cops::net
