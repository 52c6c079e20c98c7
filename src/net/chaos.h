#ifndef SECO_NET_CHAOS_H_
#define SECO_NET_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "net/socket.h"
#include "net/tcp_server.h"

namespace seco {

/// Deterministic network fault injection (docs/NETWORK.md, "Failure model
/// & chaos testing"). Mirrors the in-process `FaultModel` design: every
/// fault decision is a pure function of (seed, connection ordinal, byte
/// offset), drawn in a fixed order at connection-plan time, so a chaos run
/// is reproducible from its seed alone — independent of thread schedule,
/// recv fragmentation, or wall-clock timing. The shim sits *below* the
/// framing layer, inside `Socket::SendAll`/`RecvSome`, so it exercises the
/// byte stream exactly where real networks fail: mid-frame, mid-header,
/// between any two bytes.

/// Per-direction fault knobs. Rates are per *connection*: each planned
/// connection draws one Bernoulli per fault class, then a byte offset
/// inside `fault_window_bytes` at which the fault fires. All draws happen
/// unconditionally (whether or not the rate triggers), so enabling one
/// fault class never shifts another class's schedule.
struct ChaosOptions {
  uint64_t seed = 0;

  /// Connection is refused at dial/accept time (ECONNREFUSED analogue).
  double refuse_rate = 0.0;
  /// Connection dies (RST analogue) once the offset is crossed, both
  /// directions: sends fail, receives report a reset.
  double reset_rate = 0.0;
  /// One received byte is flipped (checksum-detectable corruption).
  double corrupt_rate = 0.0;
  /// Transmit side stops after the offset mid-frame (half-written frame);
  /// receive side sees a clean EOF at the offset.
  double truncate_rate = 0.0;
  /// One-shot stall of `stall_ms` per direction at the offset.
  double stall_rate = 0.0;
  /// Receive side goes silent at the offset: a timed read burns its full
  /// timeout then reports `kDeadlineExceeded`; an untimed read fails
  /// `kUnavailable` immediately (so a blocking server thread never hangs).
  double blackhole_rate = 0.0;

  double stall_ms = 25.0;
  /// Fault offsets are drawn uniformly in [0, fault_window_bytes): small
  /// enough that faults land inside real handshakes and frames.
  uint32_t fault_window_bytes = 8192;

  bool active() const {
    return refuse_rate > 0.0 || reset_rate > 0.0 || corrupt_rate > 0.0 ||
           truncate_rate > 0.0 || stall_rate > 0.0 || blackhole_rate > 0.0;
  }
};

/// Snapshot of fired faults. Deterministic for a fixed seed and connection
/// count — the "same seed, same schedule" oracle compares these.
struct ChaosStats {
  int64_t connections_planned = 0;
  int64_t refusals = 0;
  int64_t resets = 0;
  int64_t corruptions = 0;
  int64_t truncations = 0;
  int64_t stalls = 0;
  int64_t blackholes = 0;

  int64_t total_faults() const {
    return refusals + resets + corruptions + truncations + stalls +
           blackholes;
  }
  bool operator==(const ChaosStats&) const = default;
};

/// Atomic fault counters shared by every plan of one engine.
class ChaosLedger {
 public:
  std::atomic<int64_t> connections_planned{0};
  std::atomic<int64_t> refusals{0};
  std::atomic<int64_t> resets{0};
  std::atomic<int64_t> corruptions{0};
  std::atomic<int64_t> truncations{0};
  std::atomic<int64_t> stalls{0};
  std::atomic<int64_t> blackholes{0};

  ChaosStats Snapshot() const {
    ChaosStats s;
    s.connections_planned =
        connections_planned.load(std::memory_order_relaxed);
    s.refusals = refusals.load(std::memory_order_relaxed);
    s.resets = resets.load(std::memory_order_relaxed);
    s.corruptions = corruptions.load(std::memory_order_relaxed);
    s.truncations = truncations.load(std::memory_order_relaxed);
    s.stalls = stalls.load(std::memory_order_relaxed);
    s.blackholes = blackholes.load(std::memory_order_relaxed);
    return s;
  }
};

/// Sentinel byte offset: the fault never fires on this connection.
inline constexpr uint64_t kChaosNever = ~0ull;

/// The fault schedule of ONE connection, fixed at plan time. Thresholds are
/// immutable after planning; the `*_fired` flags are one-shot latches so a
/// fault is counted once even when both the reader and writer thread of a
/// connection observe it.
struct ChaosPlan {
  uint64_t ordinal = 0;

  bool refuse = false;
  uint64_t reset_after = kChaosNever;      ///< tx+rx byte offset
  uint64_t corrupt_at = kChaosNever;       ///< rx byte offset
  uint8_t corrupt_mask = 0;
  uint64_t truncate_after = kChaosNever;   ///< tx clamps, rx sees EOF
  uint64_t stall_at = kChaosNever;         ///< one-shot per direction
  double stall_ms = 0.0;
  uint64_t blackhole_after = kChaosNever;  ///< rx goes silent

  std::atomic<bool> reset_fired{false};
  std::atomic<bool> corrupt_fired{false};
  std::atomic<bool> truncate_fired{false};
  std::atomic<bool> stall_tx_done{false};
  std::atomic<bool> stall_rx_done{false};
  std::atomic<bool> blackhole_fired{false};

  ChaosLedger* ledger = nullptr;
};

/// Plans fault schedules for a sequence of connections. Connection ordinals
/// are assigned in plan order (dial order for clients, accept order for
/// servers) — serial traffic therefore reproduces the exact same schedule
/// run to run.
class ChaosEngine {
 public:
  explicit ChaosEngine(ChaosOptions options) : options_(options) {}

  /// Plans the next connection (ordinal auto-assigned).
  std::shared_ptr<ChaosPlan> PlanConnection() {
    return PlanConnection(
        next_ordinal_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Plans the connection with an explicit ordinal — the schedule is a pure
  /// function of (seed, ordinal), nothing else.
  std::shared_ptr<ChaosPlan> PlanConnection(uint64_t ordinal);

  ChaosStats stats() const { return ledger_.Snapshot(); }

 private:
  const ChaosOptions options_;
  std::atomic<uint64_t> next_ordinal_{0};
  ChaosLedger ledger_;
};

/// Fault hooks called by `Socket`. `offset` is the cumulative byte offset
/// of this direction *before* the pending transfer; each direction's offset
/// is owned by the single thread driving it.
///
/// Before a send of up to `*want` bytes: may clamp `*want` so a mid-buffer
/// threshold is honored exactly, sleep (stall), or fail (reset/truncate at
/// the boundary).
Status ChaosBeforeSend(ChaosPlan* plan, uint64_t offset, size_t* want);
/// Before a receive of up to `*want` bytes: may clamp, sleep, fail, or
/// report EOF (`*eof = true`, truncation). `timeout_ms` shapes the
/// black-hole: timed reads burn the timeout, untimed reads fail fast.
Status ChaosBeforeRecv(ChaosPlan* plan, uint64_t offset, size_t* want,
                       int timeout_ms, bool* eof);
/// After a receive of `n` bytes starting at `offset`: applies the one-shot
/// byte corruption if its offset landed inside this buffer.
void ChaosAfterRecv(ChaosPlan* plan, uint64_t offset, char* data, size_t n);

/// A standalone TCP proxy that forwards bytes verbatim between real
/// daemons while injecting chaos on the client-facing socket — the
/// `seco_shell --chaos-proxy` mode, for e2e runs where both endpoints are
/// separate processes that must stay fault-free themselves.
class ChaosProxy {
 public:
  ChaosProxy(std::string upstream_host, uint16_t upstream_port,
             ChaosOptions options)
      : upstream_host_(std::move(upstream_host)),
        upstream_port_(upstream_port),
        engine_(options),
        core_(&engine_) {}  // plans every connection, even when inert
  ~ChaosProxy() { Stop(); }
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  Status Start(uint16_t port = 0) {
    return core_.Start(port, [this](Socket* client) { PumpPair(client); });
  }
  void Stop() { core_.Stop(); }

  uint16_t port() const { return core_.port(); }
  ChaosStats stats() const { return engine_.stats(); }

 private:
  void PumpPair(Socket* client);

  const std::string upstream_host_;
  const uint16_t upstream_port_;
  ChaosEngine engine_;
  TcpServer core_;
};

}  // namespace seco

#endif  // SECO_NET_CHAOS_H_
