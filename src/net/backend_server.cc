#include "net/backend_server.h"

#include <chrono>
#include <deque>
#include <utility>
#include <vector>

namespace seco {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void BackendServer::RegisterHandler(
    const std::string& name, std::shared_ptr<ServiceCallHandler> handler) {
  handlers_[name] = std::move(handler);
}

void BackendServer::ExposeRegistry(const ServiceRegistry& registry) {
  for (const std::string& name : registry.interface_names()) {
    auto iface = registry.FindInterface(name);
    if (iface.ok()) RegisterHandler(name, iface.value()->handler_ptr());
  }
}

void BackendServer::Serve(Socket* conn) {
  FrameDecoder decoder;
  // Hello handshake: magic + version + role must match before any call is
  // served, so a query client that dials the backend port fails loudly.
  if (ServerHello(conn, &decoder, WireRole::kBackendClient) !=
      HelloOutcome::kAccepted) {
    return;
  }

  // Frames are timestamped the moment they arrive off the socket, THEN
  // served serially. A pipelined burst queued behind a slow call therefore
  // accumulates measurable wait — the clock deadline propagation runs on:
  // a call whose transported budget was consumed while it sat here is
  // answered kDeadlineExceeded without ever invoking its handler.
  std::deque<std::pair<Frame, double>> queue;
  std::string pending;
  size_t peak = 0;
  // When the read that last fed `decoder` returned: every frame it holds
  // has been waiting since then.
  double read_ms = 0.0;
  while (core_.running()) {
    if (queue.empty()) {
      Result<Frame> first = RecvFrame(conn, &decoder);
      if (!first.ok()) return;  // peer closed / reset / framing error
      read_ms = NowMs();
      queue.emplace_back(std::move(first.value()), read_ms);
    }
    // Before dispatching (possibly into a slow handler), pull the rest of
    // the burst and any bytes the kernel has already queued into the frame
    // queue: pipelined calls are timestamped when they reached this server,
    // not when the calls ahead of them finished. The queue stops at
    // kPipelineDepth frames; past it the bytes stay in the kernel and TCP
    // backpressures the peer. Errors here (EOF, faults, framing) are left
    // for the blocking read above to surface once the queue drains.
    Frame extra;
    while (queue.size() < kPipelineDepth) {
      if (decoder.Next(&extra)) {
        queue.emplace_back(std::move(extra), read_ms);
        continue;
      }
      pending.clear();
      Result<size_t> more = conn->RecvSome(&pending, 64 << 10,
                                           /*timeout_ms=*/0);
      if (!more.ok() || more.value() == 0) break;
      if (!decoder.Feed(pending).ok()) break;
      read_ms = NowMs();
    }
    if (queue.size() > peak) {
      peak = queue.size();
      int64_t seen = peak_queue_depth_.load(std::memory_order_relaxed);
      while (static_cast<int64_t>(peak) > seen &&
             !peak_queue_depth_.compare_exchange_weak(
                 seen, static_cast<int64_t>(peak),
                 std::memory_order_relaxed)) {
      }
    }
    // Sweep `kCancel` frames out of the queue before dispatching. A cancel
    // always arrives *behind* the call it names, so the only way it can win
    // is here — while its call is still queued ahead of it. A purged call
    // is answered `kCancelled` immediately (one reply per call, matched by
    // call id, order irrelevant to the client); a cancel whose call is gone
    // already lost the race and is dropped silently.
    // Two passes, because a deque erase invalidates every other outstanding
    // iterator: first strip the cancel frames (the erase-returned iterator
    // is the only one carried forward), then hunt each named call.
    std::vector<uint64_t> cancel_ids;
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->first.type != FrameType::kCancel) {
        ++it;
        continue;
      }
      WireReader cr(it->first.payload);
      auto cancel_id = cr.U64();
      if (cancel_id.ok()) cancel_ids.push_back(cancel_id.value());
      it = queue.erase(it);
    }
    for (uint64_t cancel_id : cancel_ids) {
      for (auto call = queue.begin(); call != queue.end(); ++call) {
        if (call->first.type != FrameType::kCall) continue;
        WireReader idr(call->first.payload);
        auto id = idr.U64();
        if (!id.ok() || id.value() != cancel_id) continue;
        queue.erase(call);
        cancelled_purges_.fetch_add(1, std::memory_order_relaxed);
        WireWriter reply;
        reply.U64(cancel_id);
        reply.Bool(false);
        EncodeStatus(Status::Cancelled("backend: call cancelled by caller"),
                     &reply);
        if (!SendFrame(conn, FrameType::kCallReply, reply.Take()).ok()) {
          return;
        }
        break;
      }
    }
    if (queue.empty()) continue;
    Frame frame = std::move(queue.front().first);
    const double waited_ms = NowMs() - queue.front().second;
    queue.pop_front();
    switch (frame.type) {
      case FrameType::kCall: {
        std::string reply = HandleCall(frame.payload, waited_ms);
        if (!SendFrame(conn, FrameType::kCallReply, reply).ok()) return;
        break;
      }
      case FrameType::kPing: {
        if (!SendFrame(conn, FrameType::kPong, frame.payload).ok()) {
          return;
        }
        break;
      }
      case FrameType::kGoodbye:
        return;
      default: {
        WireWriter w;
        EncodeStatus(Status::InvalidArgument(
                         "backend: unexpected frame type " +
                         std::to_string(static_cast<int>(frame.type))),
                     &w);
        (void)SendFrame(conn, FrameType::kError, w.Take());
        return;
      }
    }
  }
}

std::string BackendServer::HandleCall(const std::string& payload,
                                      double waited_ms) {
  WireWriter reply;
  WireReader r(payload);

  uint64_t call_id = 0;
  std::string interface_name;
  ServiceRequest request;
  Status parsed = [&]() -> Status {
    SECO_ASSIGN_OR_RETURN(call_id, r.U64());
    SECO_ASSIGN_OR_RETURN(interface_name, r.Str());
    SECO_ASSIGN_OR_RETURN(request, DecodeServiceRequest(&r));
    return r.ExpectEnd();
  }();

  reply.U64(call_id);
  if (!parsed.ok()) {
    reply.Bool(false);
    EncodeStatus(parsed, &reply);
    return reply.Take();
  }

  auto it = handlers_.find(interface_name);
  if (it == handlers_.end()) {
    reply.Bool(false);
    EncodeStatus(Status::NotFound("backend: no handler registered for '" +
                                  interface_name + "'"),
                 &reply);
    return reply.Take();
  }

  // Deadline propagation: the caller shipped its remaining budget in the
  // request; if queue wait alone has consumed it, the caller has already
  // timed out (or retried elsewhere) — computing an answer would be pure
  // waste. Reply with the same kDeadlineExceeded the caller's own recv
  // timeout produces, as a handler-level status (round-tripped verbatim,
  // never wire-retried).
  if (request.deadline_ms >= 0.0 && waited_ms > request.deadline_ms) {
    deadline_rejections_.fetch_add(1, std::memory_order_relaxed);
    reply.Bool(false);
    EncodeStatus(
        Status::DeadlineExceeded(
            "backend: call waited " + std::to_string(waited_ms) +
            " ms, over its " + std::to_string(request.deadline_ms) +
            " ms transported budget"),
        &reply);
    return reply.Take();
  }

  calls_served_.fetch_add(1, std::memory_order_relaxed);
  Result<ServiceResponse> response = it->second->Call(request);
  if (!response.ok()) {
    // Round-trip the handler's own status verbatim: a FaultModel behind
    // this server must look identical to one in-process.
    reply.Bool(false);
    EncodeStatus(response.status(), &reply);
    return reply.Take();
  }
  reply.Bool(true);
  EncodeServiceResponse(response.value(), &reply);
  return reply.Take();
}

}  // namespace seco
