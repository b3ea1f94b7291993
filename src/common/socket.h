// Thin RAII wrapper over POSIX TCP sockets for the network front end.
//
// Only what the frame transport needs: listen/accept/connect, full-buffer
// send, and exact/partial receives, every failure surfaced as a Status
// instead of errno spelunking at the call sites. SIGPIPE is suppressed per
// send (MSG_NOSIGNAL) so a peer that disappears mid-write turns into a
// Status, never a signal. Every blocking call retries on EINTR (connect
// waits for completion via poll + SO_ERROR), so a process that handles
// signals — SIGUSR1 metrics dumps, profilers, debuggers — never sees a
// spurious Corruption/Unavailable from an interrupted syscall.
//
// Fault injection: a socket ConnectTcp labeled with a site "name"
// consults the installed FaultInjector (common/fault_injector.h) before
// each send ("name.send") and recv ("name.recv"), and ConnectTcp itself
// consults "name.connect". Unlabeled sockets — the default, and every
// accepted one — skip all of it.
#ifndef LDPJS_COMMON_SOCKET_H_
#define LDPJS_COMMON_SOCKET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ldpjs {

struct FaultAction;

class Socket {
 public:
  Socket() = default;                 ///< invalid socket (fd -1)
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  /// Listening socket bound to `port` on all interfaces (SO_REUSEADDR set).
  /// Port 0 binds an ephemeral port; read it back with local_port().
  static Result<Socket> ListenTcp(uint16_t port);

  /// Connected socket to host:port (numeric address or hostname) with
  /// TCP_NODELAY set — the session protocol exchanges small control frames
  /// whose round trips must not wait on Nagle. A non-empty `fault_site`
  /// labels the connection for fault injection (checked as
  /// "<fault_site>.connect" before the attempt).
  static Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                                   std::string fault_site = {});

  /// Accepts one connection (blocking) with TCP_NODELAY set. Failures are
  /// classified: Unavailable for transient conditions worth retrying
  /// (ECONNABORTED, EAGAIN, ENOBUFS, ENOMEM, EPROTO — and a shut-down
  /// listener); Internal for conditions where retrying can only spin
  /// (EMFILE, ENFILE, EBADF, EINVAL, ...), which should stop the acceptor.
  Result<Socket> Accept() const;

  /// Sends the whole span (looping over partial writes).
  Status SendAll(std::span<const uint8_t> bytes) const;

  /// Sends `head` then `body` as one gathered write (writev), so a small
  /// frame header and its payload leave in a single segment/syscall even
  /// with TCP_NODELAY on an idle connection.
  Status SendAllV(std::span<const uint8_t> head,
                  std::span<const uint8_t> body) const;

  /// One recv: bytes read (<= out.size()), 0 meaning the peer closed.
  Result<size_t> RecvSome(std::span<uint8_t> out) const;

  /// Fills the whole span. A clean close before the first byte returns
  /// NotFound ("end of stream"); a close mid-span returns Corruption.
  Status RecvAll(std::span<uint8_t> out) const;

  /// Shuts down both directions, unblocking any thread inside recv/accept
  /// on this socket. The fd stays owned until destruction/Close.
  void ShutdownBoth() const;

  /// Caps how long a blocking send may stall (SO_SNDTIMEO); afterwards
  /// SendAll fails with Unavailable. Guards single-threaded writers (the
  /// server's ingest pump) against a peer that stops reading.
  void SetSendTimeout(int seconds) const;

  /// Caps how long a blocking recv may wait for bytes (SO_RCVTIMEO);
  /// afterwards RecvSome/RecvAll fail with DeadlineExceeded. This is the
  /// idle-connection watchdog: a hung peer turns into a reapable Status
  /// instead of a thread parked in recv forever.
  void SetRecvTimeout(int seconds) const;

  void Close();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Port this socket is bound to (resolves ephemeral binds).
  uint16_t local_port() const;

 private:
  /// The send loop without fault checks (SendAll minus injection).
  Status SendRaw(std::span<const uint8_t> bytes) const;
  /// Executes an injected send fault against a private copy of the bytes.
  Status SendFaulted(const FaultAction& action,
                     std::vector<uint8_t>& bytes) const;

  int fd_ = -1;
  std::string fault_site_;
};

}  // namespace ldpjs

#endif  // LDPJS_COMMON_SOCKET_H_
