// Cancellation over the wire (docs/NETWORK.md, "Cancellation"): the v3
// CANCEL frame purges queued queries server-side, a client disconnect
// cancels everything it left outstanding, the backend daemon purges queued
// calls named by a kCancel, and `RemoteBackendClient::Stop` interrupts
// reconnect-backoff and reply waits promptly instead of sleeping them out.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "net/backend_server.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/remote_handler.h"
#include "net/wire.h"
#include "server/server.h"
#include "sim/fixtures.h"

namespace seco {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Harness {
  Scenario scenario;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<NetServer> net;

  QueryRequest Request(int k = 5) const {
    QueryRequest request;
    request.query_text = scenario.query_text;
    request.input_bindings = scenario.inputs;
    request.k = k;
    return request;
  }
};

Harness MakeHarness(ServerOptions options = {}, double realtime = 0.0) {
  Harness h;
  Result<Scenario> scenario = MakeMovieScenario();
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  h.scenario = scenario.value();
  if (realtime > 0.0) {
    for (auto& [name, backend] : h.scenario.backends) {
      backend->set_realtime_factor(realtime);
    }
  }
  options.ladder.enabled = false;
  h.server = std::make_unique<QueryServer>(h.scenario.registry, options);
  h.net = std::make_unique<NetServer>(h.server.get());
  EXPECT_TRUE(h.net->Start().ok());
  return h;
}

TEST(NetCancelTest, CancelFramePurgesAQueuedPipelinedQuery) {
  ServerOptions options;
  options.admission.max_in_flight = 1;
  options.runner_threads = 1;
  // ~40 real ms per query: the second submission reliably queues behind
  // the first long enough for the cancel to land.
  Harness h = MakeHarness(options, 0.02);

  Result<NetClient> client = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value().Submit(1, h.Request()).ok());
  ASSERT_TRUE(client.value().Submit(2, h.Request()).ok());
  ASSERT_TRUE(client.value().Cancel(2).ok());

  // One response per submit, in submission order — the cancel does not
  // perturb the pipeline accounting.
  Result<WireResponse> first = client.value().Receive();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().request_id, 1u);
  EXPECT_EQ(first.value().status, WireStatus::kOk);

  Result<WireResponse> second = client.value().Receive();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().request_id, 2u);
  EXPECT_EQ(second.value().status, WireStatus::kCancelled);
  Result<QueryResponse> decoded = DecodeAnswerBody(second.value().body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().outcome, ServedOutcome::kCancelled);
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kCancelled);

  client.value().Goodbye();
  h.net->Stop();
  EXPECT_EQ(h.net->cancels_received(), 1);
  EXPECT_EQ(h.net->disconnect_cancels(), 0);
  EXPECT_EQ(h.server->stats().interactive.cancelled, 1);
}

TEST(NetCancelTest, CancelForUnknownIdIsHarmless) {
  Harness h = MakeHarness();
  Result<NetClient> client = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_TRUE(client.ok());
  // Cancel for an id never submitted: dropped silently, connection intact.
  ASSERT_TRUE(client.value().Cancel(999).ok());
  Result<WireResponse> wire = client.value().Roundtrip(1, h.Request());
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire.value().status, WireStatus::kOk);
  client.value().Goodbye();
  h.net->Stop();
  EXPECT_EQ(h.net->cancels_received(), 1);
  EXPECT_EQ(h.net->protocol_errors(), 0);
}

TEST(NetCancelTest, ClientDisconnectCancelsOutstandingQueries) {
  // A client that vanishes mid-query (EOF without goodbye) must not leave
  // the query running to completion for nobody: the reader's exit cancels
  // everything the connection still had outstanding.
  Harness h = MakeHarness({}, 0.05);

  {
    Result<NetClient> client =
        NetClient::Connect("127.0.0.1", h.net->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Submit(7, h.Request(10)).ok());
    // Wait until the server has accepted the query, then vanish.
    for (int i = 0; i < 500; ++i) {
      ServerStats stats = h.server->stats();
      if (stats.interactive.submitted >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // NetClient's destructor closes the socket without a goodbye frame.
  }

  // The disconnect-cancel unwinds the query; Drain returns once it has.
  h.server->Drain();
  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.interactive.cancelled, 1);
  h.net->Stop();
  EXPECT_EQ(h.net->disconnect_cancels(), 1);
}

TEST(NetCancelTest, BackendServerPurgesQueuedCancelledCall) {
  // Raw-frame exercise of the backend daemon's pre-dispatch sweep: a
  // pipelined burst [call 1, call 2, cancel 2] behind a slow handler. The
  // purged call is answered kCancelled immediately (replies are matched by
  // call id, so the out-of-order reply is safe); call 1 computes normally.
  Result<SyntheticPair> pair = MakeSyntheticPair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  // ~50 real ms per SX call: while call 1 computes, the rest of the burst
  // is guaranteed to be sitting in the queue for the sweep to see.
  pair->x.backend->set_realtime_factor(0.5);

  BackendServer server;
  server.RegisterHandler("SX", pair->x.backend);
  ASSERT_TRUE(server.Start().ok());

  Result<Socket> conn = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  FrameDecoder decoder;
  ASSERT_TRUE(
      ClientHello(&conn.value(), &decoder, WireRole::kBackendClient).ok());

  std::string burst;
  for (uint64_t id = 1; id <= 2; ++id) {
    WireWriter call;
    call.U64(id);
    call.Str("SX");
    EncodeServiceRequest(ServiceRequest{}, &call);
    burst += EncodeFrame(FrameType::kCall, call.Take());
  }
  WireWriter cancel;
  cancel.U64(2);
  burst += EncodeFrame(FrameType::kCancel, cancel.Take());
  ASSERT_TRUE(conn.value().SendAll(burst).ok());

  // The purge reply for call 2 overtakes the slow call 1.
  Result<Frame> purged = RecvFrame(&conn.value(), &decoder);
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  ASSERT_EQ(purged.value().type, FrameType::kCallReply);
  {
    WireReader r(purged.value().payload);
    EXPECT_EQ(r.U64().value(), 2u);
    EXPECT_FALSE(r.Bool().value());
    Status status = Status::OK();
    ASSERT_TRUE(DecodeStatus(&r, &status).ok());
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
  }
  Result<Frame> served = RecvFrame(&conn.value(), &decoder);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served.value().type, FrameType::kCallReply);
  {
    WireReader r(served.value().payload);
    EXPECT_EQ(r.U64().value(), 1u);
    EXPECT_TRUE(r.Bool().value());
  }

  server.Stop();
  EXPECT_EQ(server.cancelled_purges(), 1);
  EXPECT_EQ(server.calls_served(), 1);
}

// --- RemoteBackendClient::Stop interruptibility (the satellite bugfix) -----

TEST(NetCancelTest, StopDuringReconnectBackoffReturnsFarUnderTheBackoff) {
  // Regression: the reconnect backoff used to be a raw sleep, so a client
  // being torn down sat out the full (multi-second) schedule. Stop must cut
  // it short.
  uint16_t dead_port;
  {
    Listener probe;
    ASSERT_TRUE(probe.Listen(0).ok());
    dead_port = probe.port();
    probe.Close();
  }
  RemoteBackendOptions options;
  options.wire_retries = 4;
  options.reconnect.backoff_base_ms = 5000.0;  // nominal schedule: ~20 s
  options.reconnect.backoff_cap_ms = 5000.0;
  RemoteBackendClient client("127.0.0.1", dead_port, options);

  const auto start = std::chrono::steady_clock::now();
  std::thread caller([&client] {
    Result<ServiceResponse> result = client.Call("SX", ServiceRequest{});
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  client.Stop();
  caller.join();
  // The first dial fails instantly, so by 100 ms the caller is deep inside
  // its first 5000 ms backoff; Stop must pull it out within milliseconds.
  EXPECT_LT(ElapsedMs(start), 2000.0);

  // After Stop, calls fail kCancelled immediately.
  Result<ServiceResponse> after = client.Call("SX", ServiceRequest{});
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
}

TEST(NetCancelTest, StopDuringReplyWaitReturnsPromptly) {
  // Handshakes fine, then never replies — with an unbounded receive
  // timeout, only Stop can end the wait.
  Listener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  std::atomic<bool> release{false};
  std::thread silent([&] {
    Result<Socket> conn = listener.Accept();
    if (!conn.ok()) return;
    FrameDecoder decoder;
    Result<Frame> hello = RecvFrame(&conn.value(), &decoder);
    if (!hello.ok()) return;
    WireWriter ack;
    ack.U16(kWireVersion);
    (void)SendFrame(&conn.value(), FrameType::kHelloAck, ack.Take());
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  RemoteBackendOptions options;
  options.timeout_ms = -1;  // block forever
  RemoteBackendClient client("127.0.0.1", listener.port(), options);
  const auto start = std::chrono::steady_clock::now();
  std::thread caller([&client] {
    Result<ServiceResponse> result = client.Call("SX", ServiceRequest{});
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  client.Stop();
  caller.join();
  EXPECT_LT(ElapsedMs(start), 2000.0);

  release.store(true);
  silent.join();
  listener.Close();
}

TEST(NetCancelTest, PerCallCancelTokenInterruptsTheReplyWait) {
  // The in-process engine cancel rides ServiceRequest.cancel into the
  // transport: firing it mid-wait abandons the reply (kCancelled, never
  // wire-retried) while the client object itself stays usable.
  Listener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  std::atomic<bool> release{false};
  std::thread silent([&] {
    Result<Socket> conn = listener.Accept();
    if (!conn.ok()) return;
    FrameDecoder decoder;
    Result<Frame> hello = RecvFrame(&conn.value(), &decoder);
    if (!hello.ok()) return;
    WireWriter ack;
    ack.U16(kWireVersion);
    (void)SendFrame(&conn.value(), FrameType::kHelloAck, ack.Take());
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  RemoteBackendOptions options;
  options.timeout_ms = -1;
  RemoteBackendClient client("127.0.0.1", listener.port(), options);
  auto token = std::make_shared<CancelToken>();
  ServiceRequest request;
  request.cancel = token;
  const auto start = std::chrono::steady_clock::now();
  std::thread caller([&client, &request] {
    Result<ServiceResponse> result = client.Call("SX", request);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  token->Cancel("query abandoned");
  caller.join();
  EXPECT_LT(ElapsedMs(start), 2000.0);
  EXPECT_FALSE(client.stopped());  // the client survives a per-call cancel

  release.store(true);
  silent.join();
  listener.Close();
}

}  // namespace
}  // namespace seco
