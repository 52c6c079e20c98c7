#ifndef SECO_NET_SOCKET_H_
#define SECO_NET_SOCKET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"
#include "net/wire.h"

namespace seco {

struct ChaosPlan;

/// Thin RAII wrappers over POSIX TCP sockets, shared by every `src/net/`
/// component. All IO is blocking with optional `poll`-based receive
/// timeouts; partial reads/writes and EINTR are handled here so the
/// protocol layers above only ever see whole frames.

/// Owns one connected socket descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        chaos_(std::move(other.chaos_)),
        tx_offset_(std::exchange(other.tx_offset_, 0)),
        rx_offset_(std::exchange(other.rx_offset_, 0)),
        write_timeout_ms_(std::exchange(other.write_timeout_ms_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
      chaos_ = std::move(other.chaos_);
      tx_offset_ = std::exchange(other.tx_offset_, 0);
      rx_offset_ = std::exchange(other.rx_offset_, 0);
      write_timeout_ms_ = std::exchange(other.write_timeout_ms_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void Close();
  /// Shuts down the read side, unblocking a peer's or our own blocked
  /// `recv` — the graceful-drain signal for connection threads.
  void ShutdownRead();
  /// Shuts down the write side (sends FIN; peer's recv returns 0).
  void ShutdownWrite();

  /// Writes all of `data`, looping over partial sends. `SIGPIPE` is
  /// suppressed (`MSG_NOSIGNAL`); a closed peer returns a Status instead.
  Status SendAll(const std::string& data);

  /// Reads up to `max_bytes` into `out` (appending). Returns the number of
  /// bytes read; 0 means clean EOF. `timeout_ms < 0` blocks forever;
  /// otherwise a `poll` timeout fails with `kDeadlineExceeded`.
  Result<size_t> RecvSome(std::string* out, size_t max_bytes,
                          int timeout_ms = -1);

  /// Disables Nagle's algorithm — both protocols are request/response, so
  /// coalescing delay is pure added latency.
  void SetNoDelay();

  /// Attaches a deterministic fault schedule (see `net/chaos.h`). Faults
  /// then fire inside `SendAll`/`RecvSome` at exact byte offsets of this
  /// socket's tx/rx streams. Pass nullptr to detach.
  void AttachChaos(std::shared_ptr<ChaosPlan> plan) {
    chaos_ = std::move(plan);
  }
  /// The attached fault schedule, or nullptr.
  ChaosPlan* chaos() const { return chaos_.get(); }

  /// Write-progress deadline: once set (>= 0 ms), `SendAll` fails with
  /// `kDeadlineExceeded` whenever the peer accepts no bytes for that long —
  /// the slow-loris defense. Progress resets the window. < 0 disables.
  void SetWriteTimeout(int timeout_ms) { write_timeout_ms_ = timeout_ms; }

 private:
  int fd_ = -1;
  std::shared_ptr<ChaosPlan> chaos_;
  /// Cumulative bytes sent/received — the chaos offset keys. Each counter
  /// is owned by the single thread driving that direction.
  uint64_t tx_offset_ = 0;
  uint64_t rx_offset_ = 0;
  int write_timeout_ms_ = -1;
};

/// Owns a listening socket bound to 127.0.0.1.
class Listener {
 public:
  Listener() = default;
  ~Listener() = default;
  Listener(Listener&&) = default;
  Listener& operator=(Listener&&) = default;

  /// Binds and listens on loopback. `port == 0` picks an ephemeral port;
  /// the chosen port is available from `port()` afterwards.
  Status Listen(uint16_t port, int backlog = 64);

  /// Accepts one connection (blocking). Fails once `Close()` has been
  /// called from another thread.
  Result<Socket> Accept();

  /// Shuts the listening socket down, failing any blocked `Accept` (from
  /// any thread). The descriptor is released on destruction or the next
  /// `Listen`, once the acceptor thread is known to be done with it.
  void Close();

  bool valid() const { return socket_.valid(); }
  uint16_t port() const { return port_; }

 private:
  Socket socket_;
  uint16_t port_ = 0;
};

/// Connects to `host:port`; `timeout_ms < 0` means the OS default.
Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          int timeout_ms = -1);

/// Sends one framed message.
inline Status SendFrame(Socket* socket, FrameType type,
                        const std::string& payload) {
  return socket->SendAll(EncodeFrame(type, payload));
}

/// Receives frames into `decoder` until one complete frame pops, then
/// returns it. Fails on EOF, malformed framing, or receive timeout
/// (`kDeadlineExceeded`).
Result<Frame> RecvFrame(Socket* socket, FrameDecoder* decoder,
                        int timeout_ms = -1);

/// Client side of the hello handshake (docs/NETWORK.md): announces `role`
/// with the protocol magic and version, then waits up to `timeout_ms` for
/// the ack. A server's refusal comes back as the status it sent (a
/// draining front end's `kRejected`, a role or version mismatch); a peer
/// that accepts the dial but never answers fails `kUnavailable` — a
/// transport fault a caller may retry elsewhere, never `kDeadlineExceeded`.
Status ClientHello(Socket* socket, FrameDecoder* decoder, WireRole role,
                   int timeout_ms = -1);

/// How the server side of a hello handshake ended.
enum class HelloOutcome {
  kAccepted,  ///< valid hello, ack sent: serve the connection
  kRefused,   ///< valid hello, but refused by the caller or the ack failed
  kInvalid,   ///< no hello, or one failing its checks: a protocol error
};

/// Server side of the hello handshake: reads one frame (waiting up to
/// `timeout_ms`) and checks it is a hello carrying the protocol magic,
/// version and `role`. A hello failing a check is answered with a kError
/// naming the mismatch. A valid one is answered with a kHelloAck, unless
/// `refusal` returns a non-empty payload, which is sent as a kError
/// instead (the front end's drain refusal).
HelloOutcome ServerHello(Socket* socket, FrameDecoder* decoder, WireRole role,
                         int timeout_ms = -1,
                         const std::function<std::string()>& refusal = {});

}  // namespace seco

#endif  // SECO_NET_SOCKET_H_
