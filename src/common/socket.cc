#include "common/socket.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/fault_injector.h"

namespace ldpjs {

namespace {

Status ErrnoStatus(const std::string& op) {
  return Status::Internal(op + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Injection check for one operation on a labeled socket. Returns kNone —
/// without touching the injector — for unlabeled sockets or when no
/// injector is installed, so production traffic pays one branch.
FaultAction NextFault(const std::string& site, const char* op) {
  if (site.empty()) return {};
  FaultInjector* injector = FaultInjector::Active();
  if (injector == nullptr) return {};
  return injector->Next(site + op);
}

void InjectedDelay(uint64_t millis) {
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), fault_site_(std::move(other.fault_site_)) {
  other.fd_ = -1;
  other.fault_site_.clear();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    fault_site_ = std::move(other.fault_site_);
    other.fd_ = -1;
    other.fault_site_.clear();
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> Socket::ListenTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd, 128) != 0) return ErrnoStatus("listen");
  return socket;
}

Result<Socket> Socket::ConnectTcp(const std::string& host, uint16_t port,
                                  std::string fault_site) {
  const FaultAction fault = NextFault(fault_site, ".connect");
  switch (fault.kind) {
    case FaultKind::kRefuseConnect:
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) +
                                 ": injected connection refusal");
    case FaultKind::kDelay:
      InjectedDelay(fault.param);
      break;
    default:
      break;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Status::Unavailable("cannot resolve host " + host);
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return ErrnoStatus("socket");
  }
  Socket socket(fd);
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) {
    // A signal can interrupt connect after the SYN is in flight; the
    // attempt keeps completing in the kernel and POSIX forbids re-issuing
    // connect (it would return EALREADY). Wait for the outcome with poll
    // and read it from SO_ERROR instead of surfacing a spurious failure.
    if (errno == EINTR) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      int pr;
      do {
        pr = ::poll(&pfd, 1, -1);
      } while (pr < 0 && errno == EINTR);
      int err = pr > 0 ? 0 : errno;
      if (pr > 0) {
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
          err = errno;
        }
      }
      if (err != 0) {
        return Status::Unavailable("connect " + host + ":" + port_str + ": " +
                                   std::strerror(err));
      }
    } else {
      return Status::Unavailable("connect " + host + ":" + port_str + ": " +
                                 std::strerror(errno));
    }
  }
  SetNoDelay(fd);
  socket.fault_site_ = std::move(fault_site);
  return socket;
}

Result<Socket> Socket::Accept() const {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;  // a signal is not a dead listener
    // Only a listener that is closed, shut down or not a listening socket
    // fails every later accept the same way. Everything else passes: the
    // aborted handshake's successor may be fine, buffer pressure drains,
    // and a full fd table frees up as connections close.
    if (errno == EBADF || errno == EINVAL || errno == ENOTSOCK ||
        errno == EFAULT) {
      return Status::Internal(std::string("accept: ") + std::strerror(errno));
    }
    return Status::Unavailable(std::string("accept: ") + std::strerror(errno));
  }
}

Status Socket::SendRaw(std::span<const uint8_t> bytes) const {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::SendFaulted(const FaultAction& action,
                           std::vector<uint8_t>& bytes) const {
  switch (action.kind) {
    case FaultKind::kDrop:
      // The caller believes the bytes left; the peer never sees them. The
      // stream is now desynced and only a reconnect + retry can heal it.
      return Status::OK();
    case FaultKind::kDelay:
      InjectedDelay(action.param);
      return SendRaw(bytes);
    case FaultKind::kPartialWrite: {
      if (!bytes.empty()) {
        const size_t prefix = action.param % bytes.size();
        (void)SendRaw(std::span<const uint8_t>(bytes.data(), prefix));
      }
      ShutdownBoth();
      return Status::Unavailable("send: injected partial write");
    }
    case FaultKind::kCorrupt:
      if (!bytes.empty()) bytes[action.param % bytes.size()] ^= 0x01;
      return SendRaw(bytes);
    case FaultKind::kDisconnect:
      ShutdownBoth();
      return Status::Unavailable("send: injected disconnect");
    default:
      return SendRaw(bytes);
  }
}

Status Socket::SendAll(std::span<const uint8_t> bytes) const {
  const FaultAction fault = NextFault(fault_site_, ".send");
  if (fault.kind != FaultKind::kNone) {
    std::vector<uint8_t> copy(bytes.begin(), bytes.end());
    return SendFaulted(fault, copy);
  }
  return SendRaw(bytes);
}

Status Socket::SendAllV(std::span<const uint8_t> head,
                        std::span<const uint8_t> body) const {
  const FaultAction fault = NextFault(fault_site_, ".send");
  if (fault.kind != FaultKind::kNone) {
    // Fault paths flatten the gathered write; their cost is irrelevant.
    std::vector<uint8_t> copy;
    copy.reserve(head.size() + body.size());
    copy.insert(copy.end(), head.begin(), head.end());
    copy.insert(copy.end(), body.begin(), body.end());
    return SendFaulted(fault, copy);
  }
  size_t sent = 0;
  const size_t total = head.size() + body.size();
  while (sent < total) {
    iovec iov[2];
    int iov_count = 0;
    if (sent < head.size()) {
      iov[iov_count].iov_base = const_cast<uint8_t*>(head.data() + sent);
      iov[iov_count].iov_len = head.size() - sent;
      ++iov_count;
    }
    const size_t body_sent = sent > head.size() ? sent - head.size() : 0;
    if (body_sent < body.size()) {
      iov[iov_count].iov_base = const_cast<uint8_t*>(body.data() + body_sent);
      iov[iov_count].iov_len = body.size() - body_sent;
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("sendmsg: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> Socket::RecvSome(std::span<uint8_t> out) const {
  const FaultAction fault = NextFault(fault_site_, ".recv");
  switch (fault.kind) {
    case FaultKind::kDelay:
      InjectedDelay(fault.param);
      break;
    case FaultKind::kDisconnect:
      ShutdownBoth();
      return Status::Unavailable("recv: injected disconnect");
    default:
      break;
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Blocking sockets only see EAGAIN when SO_RCVTIMEO elapsed: the
      // peer went quiet past the configured deadline.
      return Status::DeadlineExceeded("recv: idle deadline elapsed");
    }
    return Status::Unavailable(std::string("recv: ") + std::strerror(errno));
  }
}

Status Socket::RecvAll(std::span<uint8_t> out) const {
  size_t received = 0;
  while (received < out.size()) {
    auto n = RecvSome(out.subspan(received));
    if (!n.ok()) return n.status();
    if (*n == 0) {
      if (received == 0) return Status::NotFound("end of stream");
      return Status::Corruption("connection closed mid-record");
    }
    received += *n;
  }
  return Status::OK();
}

void Socket::ShutdownBoth() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::SetSendTimeout(int seconds) const {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void Socket::SetRecvTimeout(int seconds) const {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

uint16_t Socket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

}  // namespace ldpjs
