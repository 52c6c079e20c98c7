#ifndef SECO_NET_NET_SERVER_H_
#define SECO_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>

#include "common/result.h"
#include "net/chaos.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "server/server.h"

namespace seco {

/// Front-end knobs. The pipelining cap is the shared `kPipelineDepth`.
struct NetServerOptions {
  /// Idle receive timeout for keep-alive connections, ms: a connection
  /// that sends nothing for this long (the hello included) is closed.
  /// < 0 waits forever.
  int idle_timeout_ms = -1;
  /// Write-progress deadline per connection, ms: a peer that submits
  /// queries and then stops reading (slow loris) fails its writer with
  /// kDeadlineExceeded instead of wedging a server thread in send().
  /// < 0 waits forever.
  int write_timeout_ms = -1;
  /// Deterministic fault injection on accepted connections (see
  /// `net/chaos.h`). Inert by default.
  ChaosOptions chaos;
};

/// TCP listener in front of a `QueryServer` (docs/NETWORK.md): speaks the
/// framed query protocol on a `TcpServer` core, with a reader and a
/// writer thread per connection,
/// parses `kQuery` frames into `QueryRequest`s, and maps each
/// `ServedOutcome` — including admission shedding with its retry-after
/// hint — onto a wire status in the result header. Answer bodies are the
/// canonical `EncodeAnswerBody` bytes, chunked at `kBodyChunkBytes`, so a
/// wire answer is byte-identical to the in-process response it came from.
///
/// Connections are keep-alive and pipelined: a client may send many
/// `kQuery` frames without waiting; responses come back in per-connection
/// request order (submission order = response order, so closed-loop
/// clients see exactly the in-process future semantics).
class NetServer {
 public:
  /// `server` must outlive this object.
  explicit NetServer(QueryServer* server, NetServerOptions options = {});
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see `port()`) and starts the
  /// acceptor thread.
  Status Start(uint16_t port = 0) {
    return core_.Start(port, [this](Socket* conn) { Serve(conn); });
  }

  /// Graceful-shutdown entry (SIGINT/SIGTERM): puts the `QueryServer`
  /// into draining mode — in-flight queries finish, new submissions shed
  /// — and makes every *new* connection's hello fail with a structured
  /// `kRejected` + retry-after. Existing connections keep their pipeline;
  /// their queued queries resolve, later ones come back `kDraining`.
  void BeginDrain();

  /// Full stop: `BeginDrain`, close the listener, shut down both sides of
  /// every connection (a writer blocked in `send` against a stalled client
  /// must fail too), join all threads, and drain the `QueryServer`.
  /// Idempotent.
  void Stop();

  uint16_t port() const { return core_.port(); }
  bool running() const { return core_.running(); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  int64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for malformed framing (oversized prefix, unknown
  /// type, garbage) — the robustness ledger.
  int64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// Connections killed by the write-progress deadline (peer stopped
  /// reading while responses were owed).
  int64_t write_stalls() const {
    return write_stalls_.load(std::memory_order_relaxed);
  }
  /// `CANCEL` frames received (v3) — whether or not they won their race.
  int64_t cancels_received() const {
    return cancels_received_.load(std::memory_order_relaxed);
  }
  /// Server-side queries cancelled because their connection went away
  /// (EOF, reset, goodbye, or framing error) while they were outstanding.
  int64_t disconnect_cancels() const {
    return disconnect_cancels_.load(std::memory_order_relaxed);
  }

  /// Faults fired by this server's chaos engine (zeros when chaos is off).
  ChaosStats chaos_stats() const { return chaos_.stats(); }

 private:
  void Serve(Socket* conn);

  QueryServer* const server_;
  const NetServerOptions options_;
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> queries_served_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> write_stalls_{0};
  std::atomic<int64_t> cancels_received_{0};
  std::atomic<int64_t> disconnect_cancels_{0};
  ChaosEngine chaos_;
  TcpServer core_;
};

}  // namespace seco

#endif  // SECO_NET_NET_SERVER_H_
