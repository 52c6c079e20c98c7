#include "net/remote_handler.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace seco {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Decodes a `kCallReply` payload into the handler's verdict. A reply that
/// is malformed, or answers some other call (a stale reply on a stream that
/// should have been discarded), leaves `*damaged` set: its status is
/// transport damage, not the handler's.
Result<ServiceResponse> DecodeCallReply(const std::string& payload,
                                        uint64_t call_id, bool* damaged) {
  *damaged = true;
  WireReader r(payload);
  SECO_ASSIGN_OR_RETURN(uint64_t reply_id, r.U64());
  if (reply_id != call_id) {
    return Status::Unavailable("backend reply id " + std::to_string(reply_id) +
                               " does not match call id " +
                               std::to_string(call_id));
  }
  SECO_ASSIGN_OR_RETURN(bool ok, r.Bool());
  if (!ok) {
    Status remote = Status::OK();
    SECO_RETURN_IF_ERROR(DecodeStatus(&r, &remote));
    SECO_RETURN_IF_ERROR(r.ExpectEnd());
    *damaged = false;
    if (remote.ok()) {
      return Status::Unavailable("backend reported failure without status");
    }
    return remote;
  }
  SECO_ASSIGN_OR_RETURN(ServiceResponse response, DecodeServiceResponse(&r));
  SECO_RETURN_IF_ERROR(r.ExpectEnd());
  *damaged = false;
  return response;
}

}  // namespace

RemoteBackendClient::RemoteBackendClient(std::string host, uint16_t port,
                                         RemoteBackendOptions options)
    : RemoteBackendClient(
          std::vector<RemoteEndpoint>{{std::move(host), port}}, options) {}

RemoteBackendClient::RemoteBackendClient(std::vector<RemoteEndpoint> endpoints,
                                         RemoteBackendOptions options)
    : endpoints_config_(std::move(endpoints)),
      options_(options),
      chaos_(options.chaos) {
  endpoints_.resize(endpoints_config_.size());
  for (size_t i = 0; i < endpoints_config_.size(); ++i) {
    endpoints_[i].host = endpoints_config_[i].host;
    endpoints_[i].port = endpoints_config_[i].port;
  }
}

void RemoteBackendClient::Stop() {
  stopped_.store(true, std::memory_order_release);
  stop_cv_.notify_all();
  dial_cv_.notify_all();
}

bool RemoteBackendClient::InterruptibleSleep(
    double ms, const std::shared_ptr<CancelToken>& cancel) {
  const double deadline = NowMs() + std::max(0.0, ms);
  std::unique_lock<std::mutex> lock(stop_mu_);
  for (;;) {
    if (stopped_.load(std::memory_order_acquire)) return false;
    if (cancel != nullptr && cancel->cancelled()) return false;
    const double remaining = deadline - NowMs();
    if (remaining <= 0.0) return true;
    // Stop() notifies this CV; a cancel token does not, so its observation
    // rides a bounded slice.
    const double slice = cancel != nullptr ? std::min(remaining, 10.0)
                                           : remaining;
    stop_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(slice));
  }
}

Result<Frame> RemoteBackendClient::RecvReply(
    PooledConn* conn, uint64_t call_id,
    const std::shared_ptr<CancelToken>& cancel) {
  const bool bounded = options_.timeout_ms >= 0;
  const double deadline =
      bounded ? NowMs() + static_cast<double>(options_.timeout_ms) : 0.0;
  for (;;) {
    if (stopped() || (cancel != nullptr && cancel->cancelled())) {
      // Tell the daemon to purge the still-queued call (fire and forget),
      // then abandon the connection — the reply may already be in flight,
      // so this stream can never be trusted for another call.
      WireWriter w;
      w.U64(call_id);
      (void)SendFrame(&conn->socket, FrameType::kCancel, w.Take());
      return cancel != nullptr && cancel->cancelled()
                 ? cancel->ToStatus()
                 : Status::Cancelled("remote backend client stopped");
    }
    const double remaining = bounded ? deadline - NowMs() : 20.0;
    if (bounded && remaining <= 0.0) {
      return Status::DeadlineExceeded(
          "backend call timed out after " +
          std::to_string(options_.timeout_ms) + " ms");
    }
    // Sliced wait: each slice re-checks Stop/cancel, so an abandoned call
    // releases its thread in O(slice), not O(timeout). The decoder keeps
    // partial frames across slices.
    const int slice_ms =
        std::max(1, static_cast<int>(std::min(remaining, 20.0)));
    Result<Frame> frame = RecvFrame(&conn->socket, &conn->decoder, slice_ms);
    if (frame.ok() ||
        frame.status().code() != StatusCode::kDeadlineExceeded) {
      return frame;
    }
  }
}

Result<RemoteBackendClient::Checked> RemoteBackendClient::Dial(
    size_t endpoint_index) {
  EndpointState& ep = endpoints_[endpoint_index];
  {
    std::lock_guard<std::mutex> lock(mu_);
    ep.dials++;
  }

  // Client-side chaos sits below the dial: a refused plan fails before the
  // kernel connect, everything else rides the socket as byte-offset faults.
  std::shared_ptr<ChaosPlan> plan;
  if (options_.chaos.active()) {
    plan = chaos_.PlanConnection();
    if (plan->refuse) {
      return Status::Unavailable("chaos: connection to " + ep.host + ":" +
                                 std::to_string(ep.port) + " refused");
    }
  }

  SECO_ASSIGN_OR_RETURN(Socket socket,
                        ConnectTcp(ep.host, ep.port, options_.timeout_ms));
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  if (plan != nullptr) socket.AttachChaos(std::move(plan));
  auto conn = std::make_unique<PooledConn>();
  conn->socket = std::move(socket);

  // Hello handshake on the fresh connection. The recv is always bounded:
  // a peer that accepts the dial but never answers must fail the dial, not
  // hang it.
  SECO_RETURN_IF_ERROR(ClientHello(&conn->socket, &conn->decoder,
                                   WireRole::kBackendClient,
                                   options_.handshake_timeout_ms));
  Checked checked;
  checked.conn = std::move(conn);
  checked.endpoint = endpoint_index;
  return checked;
}

Result<RemoteBackendClient::Checked> RemoteBackendClient::CheckOut(
    bool* exhausted) {
  // May loop: a pooled connection that fails its checkout ping is
  // discarded and the next candidate tried. Bounded because each pass
  // either returns or permanently shrinks a pool.
  for (;;) {
    std::unique_ptr<PooledConn> pooled;
    size_t pooled_index = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < endpoints_.size(); ++i) {
        EndpointState& ep = endpoints_[i];
        if (ep.evicted || ep.pool.empty()) continue;
        pooled = std::move(ep.pool.back());
        ep.pool.pop_back();
        pooled_index = i;
        break;
      }
    }
    if (pooled != nullptr) {
      connections_reused_.fetch_add(1, std::memory_order_relaxed);
      if (options_.ping_on_checkout) {
        Status alive = PingConn(pooled.get());
        if (!alive.ok()) {
          // A dead pooled connection is stale state, not fresh evidence
          // about the endpoint — discard it and keep looking rather than
          // charging it toward eviction.
          ping_failures_.fetch_add(1, std::memory_order_relaxed);
          connections_discarded_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      Checked checked;
      checked.conn = std::move(pooled);
      checked.endpoint = pooled_index;
      return checked;
    }

    // No pooled connection: pick a dial target round-robin among healthy
    // endpoints, letting one probe through to an evicted endpoint whose
    // re-probe window has elapsed (half-open circuit).
    size_t target = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const double now = NowMs();
      bool found = false;
      for (size_t offset = 0; offset < endpoints_.size(); ++offset) {
        const size_t i = (rr_ + offset) % endpoints_.size();
        EndpointState& ep = endpoints_[i];
        if (!ep.evicted) {
          target = i;
          found = true;
          break;
        }
        if (now - ep.evicted_at_ms >= options_.reprobe_ms &&
            !ep.probe_in_flight) {
          ep.probe_in_flight = true;
          target = i;
          found = true;
          break;
        }
      }
      if (!found) {
        // Every replica evicted and none due for a probe: fail fast with
        // the structured signal the reliability layer converts into a
        // ServiceLostEvent — plan repair is the healing path from here.
        *exhausted = true;
        endpoint_exhaustions_.fetch_add(1, std::memory_order_relaxed);
        return Status::Unavailable(
            "remote backend: all endpoints evicted or unreachable");
      }
      rr_ = (target + 1) % endpoints_.size();

      if (options_.max_dials > 0 && dials_in_flight_ >= options_.max_dials) {
        const bool freed = dial_cv_.wait_for(
            lock,
            std::chrono::milliseconds(std::max(0, options_.dial_wait_ms)),
            [this] {
              return dials_in_flight_ < options_.max_dials ||
                     stopped_.load(std::memory_order_acquire);
            });
        if (stopped_.load(std::memory_order_acquire)) {
          endpoints_[target].probe_in_flight = false;
          return Status::Cancelled("remote backend client stopped");
        }
        if (!freed) {
          dial_overflows_.fetch_add(1, std::memory_order_relaxed);
          endpoints_[target].probe_in_flight = false;
          return Status::Unavailable(
              "remote backend: dial queue full (" +
              std::to_string(options_.max_dials) +
              " dials in flight, waited " +
              std::to_string(options_.dial_wait_ms) + " ms)");
        }
      }
      ++dials_in_flight_;
    }

    Result<Checked> dialed = Dial(target);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --dials_in_flight_;
    }
    dial_cv_.notify_one();
    if (!dialed.ok()) {
      NoteTransportFailure(target);
      return dialed.status();
    }
    return dialed;
  }
}

void RemoteBackendClient::CheckIn(size_t endpoint_index,
                                  std::unique_ptr<PooledConn> conn) {
  std::lock_guard<std::mutex> lock(mu_);
  EndpointState& ep = endpoints_[endpoint_index];
  if (!ep.evicted && static_cast<int>(ep.pool.size()) < options_.max_pool) {
    ep.pool.push_back(std::move(conn));
    return;
  }
  connections_discarded_.fetch_add(1, std::memory_order_relaxed);
}

Status RemoteBackendClient::PingConn(PooledConn* conn) {
  pings_sent_.fetch_add(1, std::memory_order_relaxed);
  WireWriter w;
  w.U64(0x5EC0);  // echoed cookie
  SECO_RETURN_IF_ERROR(SendFrame(&conn->socket, FrameType::kPing, w.Take()));
  SECO_ASSIGN_OR_RETURN(
      Frame pong,
      RecvFrame(&conn->socket, &conn->decoder, options_.ping_timeout_ms));
  if (pong.type != FrameType::kPong) {
    return Status::Unavailable("backend answered ping with frame " +
                               std::to_string(static_cast<int>(pong.type)));
  }
  return Status::OK();
}

void RemoteBackendClient::DiscardLocked(EndpointState* ep) {
  connections_discarded_.fetch_add(static_cast<int64_t>(ep->pool.size()),
                                   std::memory_order_relaxed);
  ep->pool.clear();
}

void RemoteBackendClient::NoteSuccess(size_t endpoint_index) {
  std::lock_guard<std::mutex> lock(mu_);
  EndpointState& ep = endpoints_[endpoint_index];
  ep.consecutive_failures = 0;
  ep.calls_ok++;
  ep.evicted = false;
  ep.probe_in_flight = false;
}

void RemoteBackendClient::NoteTransportFailure(size_t endpoint_index) {
  std::lock_guard<std::mutex> lock(mu_);
  EndpointState& ep = endpoints_[endpoint_index];
  ep.transport_failures++;
  ep.consecutive_failures++;
  if (ep.probe_in_flight) {
    // Failed probe: restart the re-probe clock, release the probe slot.
    ep.probe_in_flight = false;
    ep.evicted_at_ms = NowMs();
  }
  if (!ep.evicted && ep.consecutive_failures >= options_.eviction_threshold) {
    ep.evicted = true;
    ep.evicted_at_ms = NowMs();
    ep.evictions++;
    endpoints_evicted_.fetch_add(1, std::memory_order_relaxed);
    // Pooled connections to an endpoint we just declared dead are not
    // worth health-gating one by one.
    DiscardLocked(&ep);
  }
}

Result<ServiceResponse> RemoteBackendClient::Call(
    const std::string& interface_name, const ServiceRequest& request) {
  // Ship the caller's remaining budget inside the request so the backend
  // can skip work for calls that already timed out client-side.
  ServiceRequest wire_request = request;
  if (wire_request.deadline_ms < 0.0 && options_.timeout_ms >= 0) {
    wire_request.deadline_ms = static_cast<double>(options_.timeout_ms);
  }
  const uint64_t ordinal = RequestOrdinal(request);

  const int attempts =
      options_.wire_retries < 0 ? 1 : options_.wire_retries + 1;
  Status last = Status::Unavailable("remote backend: no call attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // A cancelled call is never (re)tried, and a stopped client issues
    // nothing — both checked before any backoff is slept or socket dialed.
    if (stopped()) {
      return Status::Cancelled("remote backend client stopped");
    }
    if (wire_request.cancel != nullptr && wire_request.cancel->cancelled()) {
      return wire_request.cancel->ToStatus();
    }
    if (attempt > 0) {
      reconnect_attempts_.fetch_add(1, std::memory_order_relaxed);
      if (!InterruptibleSleep(options_.reconnect.BackoffMs(ordinal, attempt - 1),
                              wire_request.cancel)) {
        return wire_request.cancel != nullptr &&
                       wire_request.cancel->cancelled()
                   ? wire_request.cancel->ToStatus()
                   : Status::Cancelled("remote backend client stopped");
      }
    }

    bool exhausted = false;
    Result<Checked> co = CheckOut(&exhausted);
    if (!co.ok()) {
      if (exhausted) return co.status();  // fail fast: nothing left to try
      if (co.status().code() != StatusCode::kUnavailable) {
        // Non-transport dial failure (e.g. a version-mismatch rejection):
        // retrying the same handshake cannot help.
        return co.status();
      }
      last = co.status();
      continue;
    }
    Checked checked = std::move(co.value());
    PooledConn* conn = checked.conn.get();

    const uint64_t call_id =
        next_call_id_.fetch_add(1, std::memory_order_relaxed);
    WireWriter call;
    call.U64(call_id);
    call.Str(interface_name);
    EncodeServiceRequest(wire_request, &call);
    Status sent = SendFrame(&conn->socket, FrameType::kCall, call.Take());
    if (!sent.ok()) {
      NoteTransportFailure(checked.endpoint);
      connections_discarded_.fetch_add(1, std::memory_order_relaxed);
      last = sent;
      continue;
    }

    // Any failure from here on discards the connection: a reply may be in
    // flight, so the stream can never be trusted for another call — this
    // is what makes a stale reply impossible to misattribute to call N+1.
    Result<Frame> frame = RecvReply(conn, call_id, wire_request.cancel);
    if (!frame.ok() && frame.status().code() == StatusCode::kCancelled) {
      // Our own abandonment, not endpoint evidence: the connection is
      // discarded (a reply may be in flight) without charging eviction.
      connections_discarded_.fetch_add(1, std::memory_order_relaxed);
      return frame.status();
    }
    if (!frame.ok()) {
      NoteTransportFailure(checked.endpoint);
      connections_discarded_.fetch_add(1, std::memory_order_relaxed);
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        // An honest timeout goes straight up: the reliability layer owns
        // the retry decision for slow backends, and silently retrying
        // here would double the configured budget.
        return frame.status();
      }
      last = frame.status();
      continue;
    }
    if (frame.value().type == FrameType::kError) {
      // The backend spoke the protocol to reject us (bad frame type,
      // undecodable call). Deliberate, not transport damage — surface it.
      connections_discarded_.fetch_add(1, std::memory_order_relaxed);
      return ErrorFrameStatus(frame.value().payload,
                              Status::Unavailable("backend protocol error"));
    }
    bool damaged = true;
    Result<ServiceResponse> verdict =
        frame.value().type == FrameType::kCallReply
            ? DecodeCallReply(frame.value().payload, call_id, &damaged)
            : Status::Unavailable(
                  "backend sent unexpected frame " +
                  std::to_string(static_cast<int>(frame.value().type)) +
                  " instead of a call reply");
    if (damaged) {
      NoteTransportFailure(checked.endpoint);
      connections_discarded_.fetch_add(1, std::memory_order_relaxed);
      last = verdict.status();
      continue;
    }
    // The protocol exchange itself succeeded: the connection is healthy
    // and the handler's verdict round-trips verbatim, un-retried — the
    // reliability layer upstream decides what a fault status means.
    NoteSuccess(checked.endpoint);
    CheckIn(checked.endpoint, std::move(checked.conn));
    return verdict;
  }
  return last;
}

RemotePoolStats RemoteBackendClient::stats() const {
  RemotePoolStats out;
  out.connections_opened =
      connections_opened_.load(std::memory_order_relaxed);
  out.connections_reused =
      connections_reused_.load(std::memory_order_relaxed);
  out.connections_discarded =
      connections_discarded_.load(std::memory_order_relaxed);
  out.reconnect_attempts =
      reconnect_attempts_.load(std::memory_order_relaxed);
  out.dial_overflows = dial_overflows_.load(std::memory_order_relaxed);
  out.pings_sent = pings_sent_.load(std::memory_order_relaxed);
  out.ping_failures = ping_failures_.load(std::memory_order_relaxed);
  out.endpoints_evicted = endpoints_evicted_.load(std::memory_order_relaxed);
  out.endpoint_exhaustions =
      endpoint_exhaustions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const EndpointState& ep : endpoints_) {
    RemoteEndpointHealth health;
    health.endpoint = ep.host + ":" + std::to_string(ep.port);
    health.evicted = ep.evicted;
    health.consecutive_failures = ep.consecutive_failures;
    health.dials = ep.dials;
    health.calls_ok = ep.calls_ok;
    health.transport_failures = ep.transport_failures;
    health.evictions = ep.evictions;
    out.endpoints.push_back(std::move(health));
  }
  return out;
}

Result<std::shared_ptr<ServiceRegistry>> MakeRemoteRegistryRouted(
    const ServiceRegistry& local,
    std::shared_ptr<RemoteBackendClient> default_client,
    const std::map<std::string, std::shared_ptr<RemoteBackendClient>>&
        routes) {
  auto remote = std::make_shared<ServiceRegistry>();

  for (const std::string& name : local.mart_names()) {
    SECO_ASSIGN_OR_RETURN(auto mart, local.FindMart(name));
    SECO_RETURN_IF_ERROR(remote->RegisterMart(mart));
  }
  for (const std::string& name : local.interface_names()) {
    SECO_ASSIGN_OR_RETURN(auto iface, local.FindInterface(name));
    auto route = routes.find(name);
    std::shared_ptr<RemoteBackendClient> client =
        route != routes.end() ? route->second : default_client;
    auto handler = std::make_shared<RemoteServiceHandler>(client, name);
    auto twin = std::make_shared<ServiceInterface>(
        iface->name(), iface->schema_ptr(), iface->pattern(), iface->kind(),
        iface->stats(), std::move(handler));
    SECO_RETURN_IF_ERROR(
        remote->RegisterInterface(twin, local.MartOfInterface(name)));
  }
  for (const std::string& name : local.pattern_names()) {
    SECO_ASSIGN_OR_RETURN(auto pattern, local.FindConnectionPattern(name));
    SECO_RETURN_IF_ERROR(remote->RegisterConnectionPattern(pattern));
  }
  return remote;
}

Result<std::shared_ptr<ServiceRegistry>> MakeRemoteRegistry(
    const ServiceRegistry& local, const std::string& host, uint16_t port,
    RemoteBackendOptions options,
    std::shared_ptr<RemoteBackendClient>* client_out) {
  auto client = std::make_shared<RemoteBackendClient>(host, port, options);
  if (client_out != nullptr) *client_out = client;
  return MakeRemoteRegistryRouted(local, std::move(client), {});
}

}  // namespace seco
