#include "net/chaos.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace seco {

namespace {

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

std::shared_ptr<ChaosPlan> ChaosEngine::PlanConnection(uint64_t ordinal) {
  auto plan = std::make_shared<ChaosPlan>();
  plan->ordinal = ordinal;
  plan->ledger = &ledger_;
  ledger_.connections_planned.fetch_add(1, std::memory_order_relaxed);

  // The whole schedule is a pure function of (seed, ordinal), mirroring
  // FaultModel's RequestOrdinal keying. Every draw below happens whether or
  // not its rate triggers, in a fixed order, so flipping one fault class on
  // never perturbs another class's offsets.
  SplitMix64 rng(options_.seed ^ (ordinal * 0x9E3779B97F4A7C15ULL));
  const uint64_t window =
      options_.fault_window_bytes == 0 ? 1 : options_.fault_window_bytes;

  const double u_refuse = rng.NextDouble();
  const double u_reset = rng.NextDouble();
  const uint64_t off_reset = rng.Uniform(window);
  const double u_corrupt = rng.NextDouble();
  const uint64_t off_corrupt = rng.Uniform(window);
  const uint8_t mask = static_cast<uint8_t>(rng.Uniform(255) + 1);
  const double u_truncate = rng.NextDouble();
  const uint64_t off_truncate = rng.Uniform(window);
  const double u_stall = rng.NextDouble();
  const uint64_t off_stall = rng.Uniform(window);
  const double u_blackhole = rng.NextDouble();
  const uint64_t off_blackhole = rng.Uniform(window);

  if (u_refuse < options_.refuse_rate) {
    plan->refuse = true;
    // Refusal is unconditional once planned: count it here, where the
    // decision is made, so proxy/server/client refusal paths agree.
    ledger_.refusals.fetch_add(1, std::memory_order_relaxed);
  }
  if (u_reset < options_.reset_rate) plan->reset_after = off_reset;
  if (u_corrupt < options_.corrupt_rate) {
    plan->corrupt_at = off_corrupt;
    plan->corrupt_mask = mask;
  }
  if (u_truncate < options_.truncate_rate) plan->truncate_after = off_truncate;
  if (u_stall < options_.stall_rate) {
    plan->stall_at = off_stall;
    plan->stall_ms = options_.stall_ms;
  }
  if (u_blackhole < options_.blackhole_rate) {
    plan->blackhole_after = off_blackhole;
  }
  return plan;
}

Status ChaosBeforeSend(ChaosPlan* plan, uint64_t offset, size_t* want) {
  if (plan == nullptr) return Status::OK();
  if (plan->stall_at != kChaosNever && offset >= plan->stall_at &&
      !plan->stall_tx_done.exchange(true, std::memory_order_relaxed)) {
    plan->ledger->stalls.fetch_add(1, std::memory_order_relaxed);
    SleepMs(plan->stall_ms);
  }
  const uint64_t cut = std::min(plan->reset_after, plan->truncate_after);
  if (cut == kChaosNever) return Status::OK();
  if (offset >= cut) {
    if (plan->reset_after <= plan->truncate_after) {
      if (!plan->reset_fired.exchange(true, std::memory_order_relaxed)) {
        plan->ledger->resets.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::Unavailable("chaos: connection reset at tx offset " +
                                 std::to_string(offset));
    }
    if (!plan->truncate_fired.exchange(true, std::memory_order_relaxed)) {
      plan->ledger->truncations.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Unavailable("chaos: stream truncated at tx offset " +
                               std::to_string(offset));
  }
  // Clamp so the bytes up to the boundary still go out — that is what makes
  // the fault a *half-written frame* rather than a clean miss.
  *want = static_cast<size_t>(
      std::min<uint64_t>(*want, cut - offset));
  return Status::OK();
}

Status ChaosBeforeRecv(ChaosPlan* plan, uint64_t offset, size_t* want,
                       int timeout_ms, bool* eof) {
  if (plan == nullptr) return Status::OK();
  if (plan->stall_at != kChaosNever && offset >= plan->stall_at &&
      !plan->stall_rx_done.exchange(true, std::memory_order_relaxed)) {
    plan->ledger->stalls.fetch_add(1, std::memory_order_relaxed);
    SleepMs(plan->stall_ms);
  }
  if (plan->blackhole_after != kChaosNever &&
      offset >= plan->blackhole_after) {
    if (!plan->blackhole_fired.exchange(true, std::memory_order_relaxed)) {
      plan->ledger->blackholes.fetch_add(1, std::memory_order_relaxed);
    }
    if (timeout_ms >= 0) {
      SleepMs(timeout_ms);
      return Status::DeadlineExceeded(
          "chaos: black hole; recv timed out after " +
          std::to_string(timeout_ms) + " ms");
    }
    // An untimed read must not hang a server thread forever: fail fast.
    return Status::Unavailable("chaos: black hole on untimed read");
  }
  if (plan->reset_after != kChaosNever && offset >= plan->reset_after) {
    if (!plan->reset_fired.exchange(true, std::memory_order_relaxed)) {
      plan->ledger->resets.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Unavailable(
        "chaos: connection reset by peer at rx offset " +
        std::to_string(offset));
  }
  if (plan->truncate_after != kChaosNever &&
      offset >= plan->truncate_after) {
    if (!plan->truncate_fired.exchange(true, std::memory_order_relaxed)) {
      plan->ledger->truncations.fetch_add(1, std::memory_order_relaxed);
    }
    *eof = true;
    return Status::OK();
  }
  const uint64_t cut = std::min({plan->reset_after, plan->truncate_after,
                                 plan->blackhole_after});
  if (cut != kChaosNever) {
    *want = static_cast<size_t>(std::min<uint64_t>(*want, cut - offset));
  }
  return Status::OK();
}

void ChaosAfterRecv(ChaosPlan* plan, uint64_t offset, char* data, size_t n) {
  if (plan == nullptr || plan->corrupt_at == kChaosNever) return;
  if (plan->corrupt_at < offset || plan->corrupt_at >= offset + n) return;
  if (plan->corrupt_fired.exchange(true, std::memory_order_relaxed)) return;
  data[plan->corrupt_at - offset] ^=
      static_cast<char>(plan->corrupt_mask);
  plan->ledger->corruptions.fetch_add(1, std::memory_order_relaxed);
}

void ChaosProxy::PumpPair(Socket* client) {
  const ChaosPlan* plan = client->chaos();
  Result<Socket> dialed = ConnectTcp(upstream_host_, upstream_port_, 1000);
  if (!dialed.ok()) return;
  Socket upstream = std::move(dialed.value());

  // Both pumps poll with a short timeout so Stop() never waits on a silent
  // peer; chaos (attached to the client-facing socket only) fires inside
  // the Socket calls below, at exact byte offsets.
  std::atomic<bool> done{false};
  std::thread back([&] {
    std::string buf;
    while (core_.running() &&
           !done.load(std::memory_order_acquire)) {
      buf.clear();
      Result<size_t> n = upstream.RecvSome(&buf, 65536, 200);
      if (!n.ok()) {
        if (n.status().code() == StatusCode::kDeadlineExceeded) continue;
        break;
      }
      if (n.value() == 0) break;
      if (!client->SendAll(buf).ok()) break;
    }
    client->ShutdownWrite();
  });

  std::string buf;
  while (core_.running()) {
    buf.clear();
    Result<size_t> n = client->RecvSome(&buf, 65536, 200);
    if (!n.ok()) {
      // A quiet client is normal; a *black-holed* one never speaks again.
      // Tear the pair down after one poll interval, the way a middlebox
      // eventually drops a silent flow — otherwise a client blocked on an
      // untimed read would hang forever behind this proxy.
      if (n.status().code() == StatusCode::kDeadlineExceeded &&
          !plan->blackhole_fired.load(std::memory_order_acquire)) {
        continue;
      }
      break;
    }
    if (n.value() == 0) break;
    if (!upstream.SendAll(buf).ok()) break;
  }
  done.store(true, std::memory_order_release);
  upstream.ShutdownWrite();
  upstream.ShutdownRead();
  back.join();
}

}  // namespace seco
