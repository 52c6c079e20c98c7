#include "net/net_server.h"

#include <condition_variable>
#include <deque>
#include <future>
#include <unordered_map>
#include <utility>
#include <vector>

namespace seco {

NetServer::NetServer(QueryServer* server, NetServerOptions options)
    : server_(server),
      options_(options),
      chaos_(options.chaos),
      core_(options.chaos.active() ? &chaos_ : nullptr,
            options.write_timeout_ms) {}

NetServer::~NetServer() { Stop(); }

void NetServer::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  server_->BeginDrain();
}

void NetServer::Stop() {
  if (!core_.running()) return;
  // Drain first: queued queries resolve while the connections still stand,
  // and a hello racing the stop is refused with a retry-after.
  BeginDrain();
  if (core_.Stop()) server_->Drain();
}

namespace {

/// One pipelined item waiting to be written back: a query response, or a
/// control frame (pong, protocol error) the reader wants forwarded. Control
/// frames ride the same FIFO so the writer thread is the ONLY thread that
/// ever touches the socket after the handshake — a pong sent directly from
/// the reader could land between a result header and its body chunks and
/// corrupt the stream for pipelined clients.
struct PendingReply {
  enum class Kind { kQuery, kControlFrame };
  Kind kind = Kind::kQuery;

  // kQuery:
  uint64_t request_id = 0;
  std::future<QueryResponse> future;
  /// Set instead of `future` when the request failed before submission
  /// (malformed payload): the error travels as a kFailed response.
  std::optional<QueryResponse> immediate;

  // kControlFrame:
  FrameType frame_type = FrameType::kPong;
  std::string frame_payload;

  static PendingReply ControlFrame(FrameType type, std::string payload) {
    PendingReply reply;
    reply.kind = Kind::kControlFrame;
    reply.frame_type = type;
    reply.frame_payload = std::move(payload);
    return reply;
  }
};

/// FIFO of in-flight responses shared between a connection's reader (the
/// Serve thread) and its writer thread. Bounded by `kPipelineDepth`: a
/// full queue blocks the reader, which stops draining the socket, which
/// backpressures the client through TCP. A connection therefore holds at
/// most `kPipelineDepth` + 2 admitted-but-unwritten queries (the queue, the
/// one the writer holds, and the one the blocked reader is pushing).
class ReplyQueue {
 public:
  void Push(PendingReply reply) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return queue_.size() < kPipelineDepth; });
    queue_.push_back(std::move(reply));
    cv_.notify_all();
  }

  /// Pops the oldest reply; false once the queue is closed *and* empty.
  bool Pop(PendingReply* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    cv_.notify_all();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingReply> queue_;
  bool closed_ = false;
};

/// Wire request id -> QueryServer submission id for this connection's
/// outstanding queries. The reader inserts at submission and looks up on a
/// `kCancel` frame; the writer erases once the response has left (or been
/// drained). An id surviving to connection teardown is, by construction, a
/// query the client will never collect — `TakeAll` hands the reader the
/// list to force-cancel.
class OutstandingMap {
 public:
  void Insert(uint64_t wire_id, uint64_t server_id) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[wire_id] = server_id;
  }

  /// Server id for a wire id, or 0 when unknown (already answered, never
  /// admitted, or a bogus id — all safe to ignore).
  uint64_t Lookup(uint64_t wire_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(wire_id);
    return it == map_.end() ? 0 : it->second;
  }

  void Erase(uint64_t wire_id) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.erase(wire_id);
  }

  std::vector<uint64_t> TakeAll() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> ids;
    ids.reserve(map_.size());
    for (const auto& [wire_id, server_id] : map_) ids.push_back(server_id);
    map_.clear();
    return ids;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> map_;
};

}  // namespace

void NetServer::Serve(Socket* conn) {
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  FrameDecoder decoder;
  // Single-threaded until the writer spawns below, so the handshake's
  // direct sends cannot interleave with anything.
  HelloOutcome hello = ServerHello(
      conn, &decoder, WireRole::kQueryClient, options_.idle_timeout_ms,
      [this]() -> std::string {
        if (!draining_.load(std::memory_order_acquire)) return {};
        // The wire-level drain refusal: a structured kRejected plus a
        // retry-after, so load generators back off instead of erroring.
        double retry_after = server_->options().retry_after_ms;
        WireWriter w;
        EncodeStatus(Status::Rejected("front end draining; retry after " +
                                      std::to_string(retry_after) + " ms"),
                     &w);
        w.F64(retry_after);
        return w.Take();
      });
  if (hello == HelloOutcome::kInvalid) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  if (hello != HelloOutcome::kAccepted) return;

  ReplyQueue replies;
  OutstandingMap outstanding;

  // Writer: pops replies FIFO (request order) and frames them out. From
  // here on it is the only thread writing to the socket; the reader routes
  // pongs and protocol errors through the queue rather than sending them
  // itself, so frames can never interleave mid-response. Waiting on the
  // head future blocks only this connection's writes.
  std::thread writer([this, conn, &replies, &outstanding] {
    // Classifies send failures so a slow-loris kill (write-progress
    // deadline) is ledgered separately from ordinary disconnects.
    auto send = [this, conn](FrameType type, std::string payload) {
      Status sent = SendFrame(conn, type, std::move(payload));
      if (!sent.ok() &&
          sent.code() == StatusCode::kDeadlineExceeded) {
        write_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
      return sent.ok();
    };
    PendingReply reply;
    bool socket_dead = false;
    while (!socket_dead && replies.Pop(&reply)) {
      if (reply.kind == PendingReply::Kind::kControlFrame) {
        if (!send(reply.frame_type, std::move(reply.frame_payload))) {
          socket_dead = true;
        }
        continue;
      }
      QueryResponse response = reply.immediate.has_value()
                                   ? std::move(*reply.immediate)
                                   : reply.future.get();
      // The response is in hand: the query can no longer be cancelled, so
      // drop it from the cancel map before the (possibly slow) write.
      outstanding.Erase(reply.request_id);
      WireStatus wire_status = WireStatusOf(response);
      if (wire_status == WireStatus::kShed && server_->draining()) {
        wire_status = WireStatus::kDraining;
      }
      std::string body = EncodeAnswerBody(response);

      WireWriter header;
      header.U64(reply.request_id);
      header.U8(static_cast<uint8_t>(wire_status));
      header.F64(response.retry_after_ms);
      header.U32(static_cast<uint32_t>(body.size()));
      bool wrote = send(FrameType::kResultHeader, header.Take());
      for (size_t offset = 0; wrote && offset < body.size();
           offset += kBodyChunkBytes) {
        WireWriter chunk;
        chunk.U64(reply.request_id);
        chunk.Bytes(body.data() + offset,
                    std::min<size_t>(kBodyChunkBytes, body.size() - offset));
        wrote = send(FrameType::kResultBody, chunk.Take());
      }
      if (wrote) {
        WireWriter end;
        end.U64(reply.request_id);
        wrote = send(FrameType::kResultEnd, end.Take());
      }
      if (!wrote) {
        socket_dead = true;
        continue;
      }
      queries_served_.fetch_add(1, std::memory_order_relaxed);
    }
    if (socket_dead) {
      // Unblock a reader mid-recv on this socket: with the write side
      // dead no response can ever be delivered, so parsing further
      // queries is pointless.
      conn->ShutdownRead();
    }
    // Keep draining futures even if the socket died: every accepted
    // submission must be consumed so Stop()'s Drain() cannot wedge, and the
    // queue must keep emptying so a reader blocked in Push reaches its exit.
    while (replies.Pop(&reply)) {
      if (reply.kind == PendingReply::Kind::kQuery) {
        if (!reply.immediate.has_value()) (void)reply.future.get();
        outstanding.Erase(reply.request_id);
      }
    }
  });

  // Reader: pulls frames, submits queries, enqueues their futures.
  while (true) {
    Result<Frame> frame = RecvFrame(conn, &decoder, options_.idle_timeout_ms);
    if (!frame.ok()) {
      if (decoder.poisoned()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        WireWriter w;
        EncodeStatus(frame.status(), &w);
        replies.Push(
            PendingReply::ControlFrame(FrameType::kError, w.Take()));
      }
      break;
    }
    if (frame.value().type == FrameType::kGoodbye) break;
    if (frame.value().type == FrameType::kPing) {
      // The pong rides the reply FIFO behind any queued responses: a
      // liveness probe answered out-of-band could land inside another
      // response's chunk sequence. (It also gives pipelined clients a
      // clean barrier: submit N, receive N, ping.)
      replies.Push(PendingReply::ControlFrame(FrameType::kPong,
                                              frame.value().payload));
      continue;
    }
    if (frame.value().type == FrameType::kCancel) {
      cancels_received_.fetch_add(1, std::memory_order_relaxed);
      WireReader r(frame.value().payload);
      auto wire_id = r.U64();
      if (!wire_id.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      // Fire and forget: if the cancel wins, the already-queued future
      // resolves kCancelled and travels back through the normal reply
      // path, keeping the one-response-per-submit accounting. If it loses
      // (unknown/already-answered id), there is nothing to do.
      uint64_t server_id = outstanding.Lookup(wire_id.value());
      if (server_id != 0) {
        (void)server_->Cancel(server_id, "cancelled by client");
      }
      continue;
    }
    if (frame.value().type != FrameType::kQuery) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      WireWriter w;
      EncodeStatus(
          Status::InvalidArgument(
              "front end: unexpected frame type " +
              std::to_string(static_cast<int>(frame.value().type))),
          &w);
      replies.Push(PendingReply::ControlFrame(FrameType::kError, w.Take()));
      break;
    }

    WireReader r(frame.value().payload);
    auto request_id = r.U64();
    if (!request_id.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    size_t consumed = frame.value().payload.size() - r.remaining();
    Result<QueryRequest> request =
        DecodeQueryRequest(frame.value().payload.substr(consumed));

    PendingReply reply;
    reply.request_id = request_id.value();
    if (!request.ok()) {
      // A malformed query payload fails that request, not the connection:
      // the id is known, so the client gets a well-formed kFailed answer.
      QueryResponse failed;
      failed.outcome = ServedOutcome::kFailed;
      failed.status = request.status();
      reply.immediate = std::move(failed);
    } else {
      QueryServer::SubmittedQuery submitted =
          server_->SubmitWithId(std::move(request.value()));
      // id 0 = resolved at submission (shed, draining, warm cache hit):
      // nothing server-side left to cancel, so it stays out of the map.
      if (submitted.id != 0) {
        outstanding.Insert(reply.request_id, submitted.id);
      }
      reply.future = std::move(submitted.future);
    }
    replies.Push(std::move(reply));
  }

  // The client is gone (EOF, reset, goodbye, or framing error): nobody
  // will ever collect the still-outstanding responses, so reclaim their
  // executor resources now instead of letting them run to completion.
  for (uint64_t server_id : outstanding.TakeAll()) {
    if (server_->Cancel(server_id, "client disconnected")) {
      disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  replies.Close();
  writer.join();
}

}  // namespace seco
