#ifndef SECO_NET_TCP_SERVER_H_
#define SECO_NET_TCP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/socket.h"

namespace seco {

class ChaosEngine;

/// Per-connection pipelining cap of both daemons: the front end's reply
/// FIFO holds at most this many responses, the backend's frame queue at
/// most this many frames. Past it the reader stops pulling bytes off the
/// socket, so TCP backpressures the peer.
inline constexpr size_t kPipelineDepth = 64;

/// The listener core of every TCP daemon in `src/net/` (`NetServer`,
/// `BackendServer`, `ChaosProxy`; docs/NETWORK.md): one loopback listener,
/// one acceptor thread, and one thread per connection running the owner's
/// `serve` on a ready socket — chaos-planned (a refused plan drops the
/// connection before any byte) and write-deadline-armed at accept.
///
/// `Start` is check-and-set. `Stop` joins the acceptor before shutting the
/// connections down, so none is launched behind its back. A connection's
/// fd is unregistered under the lock before its socket closes, so `Stop`
/// never shuts down a recycled descriptor number. Finished connection
/// threads are reaped on every accept.
class TcpServer {
 public:
  /// `chaos`, when non-null, plans a fault schedule for every accepted
  /// connection and must outlive this object. `write_timeout_ms >= 0` arms
  /// each connection's write-progress deadline (`Socket::SetWriteTimeout`).
  explicit TcpServer(ChaosEngine* chaos, int write_timeout_ms = -1)
      : chaos_(chaos), write_timeout_ms_(write_timeout_ms) {}
  ~TcpServer() { Stop(); }
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see `port()`) and starts the
  /// acceptor thread; each accepted connection runs `serve` on its own
  /// thread and is closed when `serve` returns.
  Status Start(uint16_t port, std::function<void(Socket*)> serve);

  /// Closes the listener, joins the acceptor, shuts down both directions of
  /// every connection (so a blocked `send` fails too) and joins every
  /// connection thread. Returns false, doing nothing, when not running.
  bool Stop();

  uint16_t port() const { return listener_.port(); }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Connection {
    int fd = -1;        ///< live fd; -1 once the serving thread is past IO
    std::thread thread;
    bool done = false;  ///< set last, after the socket is closed
  };

  void AcceptLoop();
  /// Spawns the serving thread for `socket`, reaping finished ones first.
  void Launch(Socket socket);

  ChaosEngine* const chaos_;
  const int write_timeout_ms_;
  std::function<void(Socket*)> serve_;
  Listener listener_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};

  std::mutex mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace seco

#endif  // SECO_NET_TCP_SERVER_H_
