// The TCP front end (docs/NETWORK.md): framed queries in, chunked answer
// bodies out, keep-alive pipelining in submission order, shed responses
// carrying their retry-after hint on the wire, malformed payloads failing
// the request (not the connection), hostile framing dropping the
// connection, and graceful drain refusing new connections with a
// structured retry-after while in-flight queries finish.

#include "net/net_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/backend_server.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/remote_handler.h"
#include "net/wire.h"
#include "server/server.h"
#include "sim/fixtures.h"

namespace seco {
namespace {

/// Scenario + server + front end on an ephemeral loopback port. The ladder
/// is disabled so every admitted query runs at level 0 and answers are
/// byte-reproducible.
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

Harness MakeHarness(ServerOptions options = {}) {
  Harness h;
  Result<Scenario> scenario = MakeMovieScenario();
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  h.scenario = scenario.value();
  options.ladder.enabled = false;
  h.server = std::make_unique<QueryServer>(h.scenario.registry, options);
  h.net = std::make_unique<NetServer>(h.server.get());
  EXPECT_TRUE(h.net->Start().ok());
  return h;
}

/// Dials the front end and completes the query-client hello, for tests
/// that need to send raw (malformed) frames afterwards.
Socket RawHello(uint16_t port, FrameDecoder* decoder) {
  Result<Socket> conn = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  Status hello =
      ClientHello(&conn.value(), decoder, WireRole::kQueryClient, 1000);
  EXPECT_TRUE(hello.ok()) << hello.ToString();
  return std::move(conn.value());
}

TEST(NetServerTest, WireAnswerIsByteIdenticalToInProcessSubmission) {
  Harness h = MakeHarness();
  QueryRequest request = h.Request();

  // The oracle: the same request submitted in-process on a *separate*
  // server over the same substrate. (A repeat on the same server is
  // legitimately different: the per-server call cache makes repeated
  // service calls free, which zeroes the timing telemetry.)
  QueryResponse in_process;
  {
    ServerOptions options;
    options.ladder.enabled = false;
    QueryServer oracle(h.scenario.registry, options);
    in_process = oracle.Submit(request).get();
  }
  ASSERT_EQ(in_process.outcome, ServedOutcome::kCompleted);

  // ...and over the wire must produce the same answer-body bytes.
  Result<NetClient> client = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<WireResponse> wire = client.value().Roundtrip(1, request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire.value().request_id, 1u);
  EXPECT_EQ(wire.value().status, WireStatus::kOk);
  EXPECT_EQ(wire.value().body, EncodeAnswerBody(in_process));

  client.value().Goodbye();
  h.net->Stop();
}

TEST(NetServerTest, KeepAliveConnectionServesManyQueries) {
  Harness h = MakeHarness();
  Result<NetClient> client = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_TRUE(client.ok());
  std::string warm_body;
  for (uint64_t id = 1; id <= 3; ++id) {
    Result<WireResponse> wire =
        client.value().Roundtrip(id, h.Request());
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(wire.value().request_id, id);
    EXPECT_EQ(wire.value().status, WireStatus::kOk);
    // Warm repeats are deterministic. (The first run is the cold one: the
    // call cache makes repeated service calls free, so its timing
    // telemetry differs from the warm runs'.)
    if (id == 2) {
      warm_body = wire.value().body;
    } else if (id == 3) {
      EXPECT_EQ(wire.value().body, warm_body);
    }
  }
  EXPECT_TRUE(client.value().Ping(0xC0FFEE).ok());
  client.value().Goodbye();
  h.net->Stop();
  EXPECT_EQ(h.net->queries_served(), 3);
  EXPECT_EQ(h.net->connections_accepted(), 1);
  EXPECT_EQ(h.net->protocol_errors(), 0);
}

TEST(NetServerTest, PipelinedResponsesComeBackInSubmissionOrder) {
  Harness h = MakeHarness();
  Result<NetClient> client = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_TRUE(client.ok());
  const uint64_t ids[] = {7, 3, 99, 12};
  for (uint64_t id : ids) {
    // Vary k so the responses differ — order must come from submission
    // order, not from response equality.
    ASSERT_TRUE(
        client.value().Submit(id, h.Request(3 + (id % 4))).ok());
  }
  for (uint64_t id : ids) {
    Result<WireResponse> wire = client.value().Receive();
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(wire.value().request_id, id);
    EXPECT_EQ(wire.value().status, WireStatus::kOk);
  }
  client.value().Goodbye();
  h.net->Stop();
}

TEST(NetServerTest, ShedQueriesCarryRetryAfterOnTheWire) {
  ServerOptions options;
  options.admission.max_in_flight = 1;
  // One slot deep: the first submission is admitted, the burst behind it
  // overflows. (Capacity 0 would shed even the first — Submit always lands
  // in the class queue before a runner picks it up.)
  options.admission.interactive.queue_capacity = 1;
  options.runner_threads = 1;
  Harness h = MakeHarness(options);

  Result<NetClient> client = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_TRUE(client.ok());
  const int n = 8;
  for (uint64_t id = 1; id <= n; ++id) {
    ASSERT_TRUE(client.value().Submit(id, h.Request()).ok());
  }
  int shed = 0, served = 0;
  for (int i = 0; i < n; ++i) {
    Result<WireResponse> wire = client.value().Receive();
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    if (wire.value().status == WireStatus::kShed) {
      ++shed;
      // The header's retry-after matches the body's structured hint.
      EXPECT_GT(wire.value().retry_after_ms, 0.0);
      Result<QueryResponse> decoded = DecodeAnswerBody(wire.value().body);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value().outcome, ServedOutcome::kShed);
      EXPECT_EQ(decoded.value().status.code(), StatusCode::kRejected);
      EXPECT_EQ(decoded.value().retry_after_ms, wire.value().retry_after_ms);
    } else {
      ++served;
      EXPECT_EQ(wire.value().status, WireStatus::kOk);
    }
  }
  // A one-deep queue with one in-flight slot must shed some of eight
  // back-to-back submissions, and must serve at least the first.
  EXPECT_GT(shed, 0);
  EXPECT_GT(served, 0);
  client.value().Goodbye();
  h.net->Stop();
}

TEST(NetServerTest, MalformedQueryPayloadFailsTheRequestNotTheConnection) {
  Harness h = MakeHarness();
  FrameDecoder decoder;
  Socket conn = RawHello(h.net->port(), &decoder);

  // A kQuery frame whose payload is an id plus garbage: the front end must
  // answer it kFailed and keep serving the connection.
  WireWriter bad;
  bad.U64(41);
  bad.Bytes("this is not a query request", 27);
  ASSERT_TRUE(SendFrame(&conn, FrameType::kQuery, bad.Take()).ok());

  Result<Frame> header = RecvFrame(&conn, &decoder);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  ASSERT_EQ(header.value().type, FrameType::kResultHeader);
  {
    WireReader r(header.value().payload);
    EXPECT_EQ(r.U64().value(), 41u);
    EXPECT_EQ(r.U8().value(), static_cast<uint8_t>(WireStatus::kFailed));
  }
  // Drain the body + end frames of the failure response.
  while (true) {
    Result<Frame> f = RecvFrame(&conn, &decoder);
    ASSERT_TRUE(f.ok());
    if (f.value().type == FrameType::kResultEnd) break;
    ASSERT_EQ(f.value().type, FrameType::kResultBody);
  }

  // The connection survived: a ping still pongs.
  WireWriter ping;
  ping.U64(5);
  ASSERT_TRUE(SendFrame(&conn, FrameType::kPing, ping.Take()).ok());
  Result<Frame> pong = RecvFrame(&conn, &decoder);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().type, FrameType::kPong);
  h.net->Stop();
  EXPECT_EQ(h.net->protocol_errors(), 0);
}

TEST(NetServerTest, PingBehindPipelinedQueriesNeverInterleavesMidResponse) {
  // Queries and a ping sent in one burst: the ping arrives at the server's
  // reader while the writer is still streaming result frames. The pong must
  // ride the reply FIFO — behind the two complete responses — never between
  // a result header and its body chunks (which would corrupt the stream).
  Harness h = MakeHarness();
  FrameDecoder decoder;
  Socket conn = RawHello(h.net->port(), &decoder);

  std::string burst;
  for (uint64_t id = 1; id <= 2; ++id) {
    WireWriter q;
    q.U64(id);
    std::string encoded = EncodeQueryRequest(h.Request());
    q.Bytes(encoded.data(), encoded.size());
    burst += EncodeFrame(FrameType::kQuery, q.Take());
  }
  WireWriter ping;
  ping.U64(0xFEED);
  burst += EncodeFrame(FrameType::kPing, ping.Take());
  ASSERT_TRUE(conn.SendAll(burst).ok());

  for (uint64_t id = 1; id <= 2; ++id) {
    Result<Frame> header = RecvFrame(&conn, &decoder);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    ASSERT_EQ(header.value().type, FrameType::kResultHeader);
    EXPECT_EQ(WireReader(header.value().payload).U64().value(), id);
    // Until kResultEnd, ONLY body chunks for this id may appear.
    while (true) {
      Result<Frame> f = RecvFrame(&conn, &decoder);
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      if (f.value().type == FrameType::kResultEnd) break;
      ASSERT_EQ(f.value().type, FrameType::kResultBody);
      EXPECT_EQ(WireReader(f.value().payload).U64().value(), id);
    }
  }
  Result<Frame> pong = RecvFrame(&conn, &decoder);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value().type, FrameType::kPong);
  EXPECT_EQ(WireReader(pong.value().payload).U64().value(), 0xFEEDu);
  h.net->Stop();
  EXPECT_EQ(h.net->queries_served(), 2);
}

TEST(NetServerTest, ManyShortLivedConnectionsThenCleanStop) {
  // Connection churn: finished serving threads are reaped as new
  // connections arrive (rather than accumulating until Stop), and Stop
  // still joins whatever is live.
  Harness h = MakeHarness();
  for (int i = 0; i < 20; ++i) {
    Result<NetClient> client = NetClient::Connect("127.0.0.1", h.net->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Ping(static_cast<uint64_t>(i)).ok());
    client.value().Goodbye();
  }
  h.net->Stop();
  EXPECT_EQ(h.net->connections_accepted(), 20);
  EXPECT_EQ(h.net->protocol_errors(), 0);
}

TEST(NetServerTest, GarbageFramingDropsTheConnection) {
  Harness h = MakeHarness();
  FrameDecoder decoder;
  Socket conn = RawHello(h.net->port(), &decoder);

  // An oversized length prefix with a garbage type: the server answers with
  // kError and hangs up.
  ASSERT_TRUE(conn.SendAll(std::string(64, '\xEE')).ok());
  Result<Frame> error = RecvFrame(&conn, &decoder);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error.value().type, FrameType::kError);
  // Then EOF.
  Result<Frame> eof = RecvFrame(&conn, &decoder);
  EXPECT_FALSE(eof.ok());
  h.net->Stop();
  EXPECT_EQ(h.net->protocol_errors(), 1);
}

TEST(NetServerTest, BackendRoleHelloIsRefused) {
  Harness h = MakeHarness();
  Result<Socket> conn = ConnectTcp("127.0.0.1", h.net->port());
  ASSERT_TRUE(conn.ok());
  FrameDecoder decoder;
  Status hello =
      ClientHello(&conn.value(), &decoder, WireRole::kBackendClient, 1000);
  // The front end answers the wrong role with a kError, decoded here.
  EXPECT_EQ(hello.code(), StatusCode::kInvalidArgument) << hello.ToString();
  h.net->Stop();
  EXPECT_EQ(h.net->protocol_errors(), 1);
}

TEST(NetServerTest, BackendServerRefusesQueryClientHello) {
  BackendServer backend;
  ASSERT_TRUE(backend.Start().ok());
  Result<Socket> conn = ConnectTcp("127.0.0.1", backend.port());
  ASSERT_TRUE(conn.ok());
  FrameDecoder decoder;
  Status hello =
      ClientHello(&conn.value(), &decoder, WireRole::kQueryClient, 1000);
  EXPECT_EQ(hello.code(), StatusCode::kInvalidArgument) << hello.ToString();
  EXPECT_NE(hello.message().find("expected a backend client hello"),
            std::string::npos)
      << hello.ToString();
  backend.Stop();
}

TEST(NetServerTest, IdleConnectionIsClosedAfterIdleTimeout) {
  Result<Scenario> scenario = MakeMovieScenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  QueryServer server(scenario.value().registry);
  NetServerOptions options;
  options.idle_timeout_ms = 50;
  NetServer net(&server, options);
  ASSERT_TRUE(net.Start().ok());

  FrameDecoder decoder;
  Socket conn = RawHello(net.port(), &decoder);
  // Send nothing after the hello: the server's timed read expires and it
  // hangs up, so this read sees EOF long before its own 5 s bound.
  Result<Frame> frame = RecvFrame(&conn, &decoder, 5000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable)
      << frame.status().ToString();
  net.Stop();
  EXPECT_EQ(net.connections_accepted(), 1);
  EXPECT_EQ(net.protocol_errors(), 0);
}

TEST(NetServerTest, DrainRefusesNewConnectionsAndFlagsLateQueries) {
  Harness h = MakeHarness();

  // A connection opened before the drain keeps its pipeline...
  Result<NetClient> veteran = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_TRUE(veteran.ok());

  h.net->BeginDrain();
  EXPECT_TRUE(h.net->draining());
  EXPECT_TRUE(h.server->draining());

  // ...but its post-drain submissions come back kDraining with a
  // retry-after, and decode as shed-by-drain.
  Result<WireResponse> late = veteran.value().Roundtrip(1, h.Request());
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late.value().status, WireStatus::kDraining);
  EXPECT_GT(late.value().retry_after_ms, 0.0);
  Result<QueryResponse> decoded = DecodeAnswerBody(late.value().body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().outcome, ServedOutcome::kShed);
  EXPECT_NE(decoded.value().status.message().find("draining"),
            std::string::npos);

  // New connections are refused at hello with the structured rejection.
  Result<NetClient> refused = NetClient::Connect("127.0.0.1", h.net->port());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kRejected);

  veteran.value().Goodbye();
  h.net->Stop();
  EXPECT_FALSE(h.net->running());
}

/// The lifecycle every daemon on the shared listener core keeps: a second
/// `Start` fails without binding, and `Stop` is idempotent.
template <typename Daemon>
void ExpectStopIsIdempotent(Daemon* daemon) {
  EXPECT_GT(daemon->port(), 0);
  EXPECT_EQ(daemon->Start().code(), StatusCode::kAlreadyExists);
  daemon->Stop();
  daemon->Stop();
}

TEST(NetServerTest, StopIsIdempotentAndStartRebindsAfterStop) {
  Harness h = MakeHarness();
  BackendServer backend;
  ChaosProxy proxy("127.0.0.1", h.net->port(), ChaosOptions{});
  ASSERT_TRUE(backend.Start().ok());
  ASSERT_TRUE(proxy.Start().ok());
  ExpectStopIsIdempotent(h.net.get());
  ExpectStopIsIdempotent(&backend);
  ExpectStopIsIdempotent(&proxy);
  EXPECT_FALSE(h.net->running());
  EXPECT_FALSE(backend.running());

  // The QueryServer behind a stopped front end has been drained, and the
  // drain is irreversible: fresh instances on fresh ports still work. One
  // query crosses all three: proxy -> front end -> remote backend.
  BackendServer backend2;
  backend2.ExposeRegistry(*h.scenario.registry);
  ASSERT_TRUE(backend2.Start().ok());
  Result<std::shared_ptr<ServiceRegistry>> remote =
      MakeRemoteRegistry(*h.scenario.registry, "127.0.0.1", backend2.port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  QueryServer fresh(remote.value(), h.server->options());
  NetServer net2(&fresh);
  ASSERT_TRUE(net2.Start().ok());
  ChaosProxy proxy2("127.0.0.1", net2.port(), ChaosOptions{});
  ASSERT_TRUE(proxy2.Start().ok());
  Result<NetClient> client = NetClient::Connect("127.0.0.1", proxy2.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<WireResponse> wire = client.value().Roundtrip(1, h.Request());
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire.value().status, WireStatus::kOk);
  client.value().Goodbye();
  proxy2.Stop();
  net2.Stop();
  EXPECT_GT(backend2.calls_served(), 0);
  // An inert proxy still plans (and so counts) every connection.
  EXPECT_EQ(proxy2.stats().connections_planned, 1);
  EXPECT_EQ(proxy2.stats().total_faults(), 0);
}

}  // namespace
}  // namespace seco
