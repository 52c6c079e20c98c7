#ifndef SECO_NET_BACKEND_SERVER_H_
#define SECO_NET_BACKEND_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "net/chaos.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "service/invocation.h"
#include "service/registry.h"

namespace seco {

/// Backend-server knobs.
struct BackendServerOptions {
  /// Deterministic fault injection on accepted connections (connect
  /// refusal, resets, corruption, stalls — see `net/chaos.h`). Inert by
  /// default.
  ChaosOptions chaos;
};

/// Exposes `ServiceCallHandler`s over a localhost socket — the server half
/// of the drop-in-backend claim (docs/NETWORK.md). A `RemoteServiceHandler`
/// on the other end makes the hop invisible to the engines: requests and
/// responses travel as the bit-exact wire codec, and handler errors
/// round-trip code + message verbatim, so a `FaultModel` behind this server
/// trips retries and breakers exactly as it does in-process.
///
/// Concurrency model: a `TcpServer` core, so one acceptor thread plus one
/// thread per connection, each serving calls serially; parallelism comes
/// from clients opening several connections (the `RemoteServiceHandler`
/// pools them). A connection queues at most `kPipelineDepth` frames read
/// ahead of the call being served.
class BackendServer {
 public:
  explicit BackendServer(BackendServerOptions options = {})
      : chaos_(options.chaos),
        core_(options.chaos.active() ? &chaos_ : nullptr) {}
  ~BackendServer() { Stop(); }
  BackendServer(const BackendServer&) = delete;
  BackendServer& operator=(const BackendServer&) = delete;

  /// Registers `handler` under `name`. Call before `Start`.
  void RegisterHandler(const std::string& name,
                       std::shared_ptr<ServiceCallHandler> handler);

  /// Registers every interface of `registry` under its interface name —
  /// the one-liner that puts a whole sim substrate behind the wire.
  void ExposeRegistry(const ServiceRegistry& registry);

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see `port()`) and starts the
  /// acceptor thread.
  Status Start(uint16_t port = 0) {
    return core_.Start(port, [this](Socket* conn) { Serve(conn); });
  }

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent.
  void Stop() { core_.Stop(); }

  uint16_t port() const { return core_.port(); }
  bool running() const { return core_.running(); }

  /// Calls served since `Start` (across all connections).
  int64_t calls_served() const {
    return calls_served_.load(std::memory_order_relaxed);
  }

  /// Calls dropped by deadline propagation: their queue wait had already
  /// consumed the caller's transported budget, so no handler ran.
  int64_t deadline_rejections() const {
    return deadline_rejections_.load(std::memory_order_relaxed);
  }

  /// Queued calls purged by a `kCancel` frame (v3) before their handler
  /// ran; each was answered `kCancelled` to keep one-reply-per-call.
  int64_t cancelled_purges() const {
    return cancelled_purges_.load(std::memory_order_relaxed);
  }

  /// The most frames any one connection has held queued, the next one to
  /// serve included; never above `kPipelineDepth`.
  int64_t peak_queue_depth() const {
    return peak_queue_depth_.load(std::memory_order_relaxed);
  }

  /// Faults fired by this server's chaos engine (zeros when chaos is off).
  ChaosStats chaos_stats() const { return chaos_.stats(); }

 private:
  void Serve(Socket* conn);
  /// Handles one kCall frame; returns the kCallReply payload. `waited_ms`
  /// is how long the frame sat queued behind earlier calls on this
  /// connection — the deadline-propagation clock.
  std::string HandleCall(const std::string& payload, double waited_ms);

  std::map<std::string, std::shared_ptr<ServiceCallHandler>> handlers_;
  std::atomic<int64_t> calls_served_{0};
  std::atomic<int64_t> deadline_rejections_{0};
  std::atomic<int64_t> cancelled_purges_{0};
  std::atomic<int64_t> peak_queue_depth_{0};
  ChaosEngine chaos_;
  TcpServer core_;
};

}  // namespace seco

#endif  // SECO_NET_BACKEND_SERVER_H_
