// The chaos headline invariant (docs/NETWORK.md, "Failure model & chaos
// testing"): under ANY chaos seed, every query that completes returns an
// answer byte-identical to the fault-free oracle, and every query that does
// not complete degrades through a structured status — never a hang, crash,
// or silently corrupted answer. Plus the self-healing pool contracts: same
// seed => same fault schedule, dial cap bounds concurrency (not reuse),
// poisoned connections are never reused, stale replies are never
// misattributed, deadline budgets travel with calls, and a dead replica is
// evicted and failed over via ServiceLostEvent -> PlanRepairer over the
// wire with answers identical to planning against the replica from the
// start.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/seco.h"
#include "tests/test_util.h"

namespace seco {
namespace {

// --- Shared fixtures -------------------------------------------------------

SyntheticPair MakePair() {
  Result<SyntheticPair> pair = MakeSyntheticPair();
  EXPECT_TRUE(pair.ok()) << pair.status().ToString();
  return pair.value();
}

void ExpectSameResponse(const ServiceResponse& got,
                        const ServiceResponse& want) {
  ASSERT_EQ(got.tuples.size(), want.tuples.size());
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    EXPECT_TRUE(got.tuples[i] == want.tuples[i]) << "tuple " << i;
  }
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.exhausted, want.exhausted);
  EXPECT_EQ(got.latency_ms, want.latency_ms);
  EXPECT_EQ(got.fault_overhead_ms, want.fault_overhead_ms);
}

/// Echoes the chunk index back as one tuple after a real-time delay —
/// a backend that is *slow on the wall clock*, for timeout/deadline tests.
class SlowEchoHandler : public ServiceCallHandler {
 public:
  explicit SlowEchoHandler(int sleep_ms, int slow_calls = 1 << 30)
      : sleep_ms_(sleep_ms), slow_calls_(slow_calls) {}

  Result<ServiceResponse> Call(const ServiceRequest& request) override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) < slow_calls_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    ServiceResponse response;
    response.tuples.push_back(
        Tuple({Value(static_cast<int64_t>(request.chunk_index))}));
    response.scores.push_back(1.0);
    response.exhausted = true;
    return response;
  }

 private:
  const int sleep_ms_;
  const int slow_calls_;  ///< Only the first N calls sleep.
  std::atomic<int> calls_{0};
};

LoadProfile SerialProfile() {
  LoadProfile profile = LoadProfileByName("serial").value();
  profile.num_queries = 8;
  return profile;
}

ServerOptions ByteExactOptions() {
  ServerOptions options;
  options.ladder.enabled = false;
  return options;
}

ChaosOptions MatrixChaos(uint64_t seed) {
  ChaosOptions chaos;
  chaos.seed = seed;
  chaos.refuse_rate = 0.10;
  chaos.reset_rate = 0.25;
  chaos.corrupt_rate = 0.25;
  chaos.truncate_rate = 0.25;
  chaos.stall_rate = 0.30;
  chaos.blackhole_rate = 0.15;
  chaos.stall_ms = 2.0;
  // Small window so fault offsets land inside the short serial exchanges.
  chaos.fault_window_bytes = 768;
  return chaos;
}

/// Re-encodes an answer body with its *server-history telemetry* zeroed:
/// call-cache hit counts, simulated latency, and per-node call stats depend
/// on which OTHER queries of the run reached the server — state chaos
/// legitimately perturbs by killing earlier queries on the wire. Everything
/// user-visible (outcome, status, degradation, combinations with scores and
/// tuples, completeness) survives and must match the oracle byte for byte.
std::string CanonicalAnswer(QueryResponse r) {
  r.answer_cache_hit = false;
  r.retry_after_ms = 0.0;
  auto scrub = [](auto* result) {
    result->total_calls = 0;
    result->total_latency_ms = 0.0;
    result->cache_hits = 0;
    result->cache_misses = 0;
    result->node_stats.clear();
    result->open_breakers.clear();
    result->reliability = ReliabilityStats();
    result->repair = RepairStats();
  };
  scrub(&r.execution);
  r.execution.elapsed_ms = 0.0;
  r.execution.total_combinations_produced = 0;
  scrub(&r.streaming);
  r.streaming.speculative_calls = 0;
  r.streaming.speculative_wasted = 0;
  return EncodeAnswerBody(r);
}

std::string CanonicalAnswer(const std::string& body) {
  Result<QueryResponse> decoded = DecodeAnswerBody(body);
  if (!decoded.ok()) return "undecodable: " + decoded.status().ToString();
  return CanonicalAnswer(std::move(decoded.value()));
}

/// Fault-free oracle bodies for one scenario under the serial profile.
std::vector<std::string> Oracle(const Scenario& scenario,
                                const std::vector<LoadItem>& schedule,
                                const LoadProfile& profile) {
  QueryServer server(scenario.registry, ByteExactOptions());
  LoadReport report = DriveLoad(&server, schedule, profile);
  std::vector<std::string> bodies;
  for (const QueryResponse& r : report.responses) {
    EXPECT_NE(r.outcome, ServedOutcome::kFailed) << r.status.ToString();
    bodies.push_back(CanonicalAnswer(r));
  }
  return bodies;
}

/// The invariant, applied to one in-process report: completed answers are
/// byte-identical to the oracle, everything else carries a structured
/// (non-OK) status.
int ExpectByteIdenticalOrStructured(const LoadReport& report,
                                    const std::vector<std::string>& oracle,
                                    const std::string& leg) {
  int completed = 0;
  EXPECT_EQ(report.responses.size(), oracle.size()) << leg;
  for (size_t i = 0; i < report.responses.size(); ++i) {
    const QueryResponse& r = report.responses[i];
    if (r.outcome == ServedOutcome::kFailed ||
        r.outcome == ServedOutcome::kDeadlineExpired) {
      EXPECT_FALSE(r.status.ok()) << leg << ": query " << i
                                  << " failed without a structured status";
      continue;
    }
    EXPECT_EQ(AnswerBodyHex(CanonicalAnswer(r)), AnswerBodyHex(oracle[i]))
        << leg << ": completed query " << i << " diverged from the oracle";
    ++completed;
  }
  return completed;
}

/// Same invariant for a wire-mode report, where transport faults surface as
/// kFailed slots with empty bodies.
int ExpectWireByteIdenticalOrStructured(
    const WireLoadReport& report, const std::vector<std::string>& oracle,
    const std::string& leg) {
  int completed = 0;
  EXPECT_EQ(report.responses.size(), oracle.size()) << leg;
  for (size_t i = 0; i < report.responses.size(); ++i) {
    const QueryResponse& r = report.responses[i];
    if (r.outcome == ServedOutcome::kFailed ||
        r.outcome == ServedOutcome::kDeadlineExpired) {
      EXPECT_FALSE(r.status.ok()) << leg << ": query " << i
                                  << " failed without a structured status";
      continue;
    }
    EXPECT_EQ(AnswerBodyHex(CanonicalAnswer(report.bodies[i])),
              AnswerBodyHex(oracle[i]))
        << leg << ": completed query " << i << " diverged from the oracle";
    ++completed;
  }
  return completed;
}

// --- The equivalence matrix: seeds x topologies ----------------------------

TEST(NetChaosTest, FrontEndChaosNeverCorruptsCompletedAnswers) {
  Result<Scenario> scenario = MakeMovieScenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  LoadProfile profile = SerialProfile();
  LoadGenerator generator(profile, scenario.value().query_text,
                          scenario.value().inputs);
  std::vector<LoadItem> schedule = generator.Schedule();
  std::vector<std::string> oracle = Oracle(scenario.value(), schedule, profile);

  int64_t total_faults = 0;
  for (uint64_t seed : {3u, 5u, 9u}) {
    QueryServer server(scenario.value().registry, ByteExactOptions());
    NetServerOptions net_options;
    net_options.chaos = MatrixChaos(seed);
    net_options.write_timeout_ms = 2000;
    NetServer net(&server, net_options);
    ASSERT_TRUE(net.Start().ok());
    WireLoadReport report =
        DriveLoadOverWire("127.0.0.1", net.port(), schedule, profile);
    ExpectWireByteIdenticalOrStructured(
        report, oracle, "front-end/seed" + std::to_string(seed));
    net.Stop();
    total_faults += net.chaos_stats().total_faults();
    EXPECT_GT(net.chaos_stats().connections_planned, 0)
        << "seed " << seed << ": chaos engine never saw a connection";
  }
  // The matrix actually exercised faults somewhere, or it proves nothing.
  EXPECT_GT(total_faults, 0);
}

TEST(NetChaosTest, BackendChaosHealsOrFailsStructurally) {
  Result<Scenario> scenario = MakeMovieScenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  LoadProfile profile = SerialProfile();
  LoadGenerator generator(profile, scenario.value().query_text,
                          scenario.value().inputs);
  std::vector<LoadItem> schedule = generator.Schedule();
  std::vector<std::string> oracle = Oracle(scenario.value(), schedule, profile);

  int64_t total_faults = 0;
  int completed = 0;
  for (uint64_t seed : {3u, 5u, 9u}) {
    BackendServerOptions backend_options;
    backend_options.chaos = MatrixChaos(seed);
    BackendServer backend(backend_options);
    backend.ExposeRegistry(*scenario.value().registry);
    ASSERT_TRUE(backend.Start().ok());

    RemoteBackendOptions remote_options;
    remote_options.timeout_ms = 2000;  // bounds every read under chaos
    remote_options.wire_retries = 3;   // transport faults heal transparently
    remote_options.reconnect.backoff_base_ms = 1.0;
    remote_options.reconnect.backoff_cap_ms = 4.0;
    Result<std::shared_ptr<ServiceRegistry>> remote =
        MakeRemoteRegistry(*scenario.value().registry, "127.0.0.1",
                           backend.port(), remote_options);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();

    QueryServer server(remote.value(), ByteExactOptions());
    LoadReport report = DriveLoad(&server, schedule, profile);
    completed += ExpectByteIdenticalOrStructured(
        report, oracle, "backend/seed" + std::to_string(seed));
    backend.Stop();
    total_faults += backend.chaos_stats().total_faults();
  }
  EXPECT_GT(total_faults, 0);
  // Wire retries heal transport faults: most of the matrix completes.
  EXPECT_GT(completed, 0);
}

TEST(NetChaosTest, ClientSideChaosHealsOrFailsStructurally) {
  Result<Scenario> scenario = MakeMovieScenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  LoadProfile profile = SerialProfile();
  LoadGenerator generator(profile, scenario.value().query_text,
                          scenario.value().inputs);
  std::vector<LoadItem> schedule = generator.Schedule();
  std::vector<std::string> oracle = Oracle(scenario.value(), schedule, profile);

  int64_t total_faults = 0;
  for (uint64_t seed : {3u, 5u, 9u}) {
    BackendServer backend;
    backend.ExposeRegistry(*scenario.value().registry);
    ASSERT_TRUE(backend.Start().ok());

    RemoteBackendOptions remote_options;
    remote_options.timeout_ms = 2000;
    remote_options.wire_retries = 3;
    remote_options.reconnect.backoff_base_ms = 1.0;
    remote_options.reconnect.backoff_cap_ms = 4.0;
    remote_options.chaos = MatrixChaos(seed);
    std::shared_ptr<RemoteBackendClient> client;
    Result<std::shared_ptr<ServiceRegistry>> remote =
        MakeRemoteRegistry(*scenario.value().registry, "127.0.0.1",
                           backend.port(), remote_options, &client);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();

    QueryServer server(remote.value(), ByteExactOptions());
    LoadReport report = DriveLoad(&server, schedule, profile);
    ExpectByteIdenticalOrStructured(report, oracle,
                                    "client/seed" + std::to_string(seed));
    backend.Stop();
    total_faults += client->chaos_stats().total_faults();
  }
  EXPECT_GT(total_faults, 0);
}

TEST(NetChaosTest, ChaosProxyPreservesCompletedAnswers) {
  Result<Scenario> scenario = MakeConferenceScenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  LoadProfile profile = SerialProfile();
  LoadGenerator generator(profile, scenario.value().query_text,
                          scenario.value().inputs);
  std::vector<LoadItem> schedule = generator.Schedule();
  std::vector<std::string> oracle = Oracle(scenario.value(), schedule, profile);

  QueryServer server(scenario.value().registry, ByteExactOptions());
  NetServer net(&server);
  ASSERT_TRUE(net.Start().ok());
  ChaosProxy proxy("127.0.0.1", net.port(), MatrixChaos(7));
  ASSERT_TRUE(proxy.Start().ok());

  WireLoadReport report =
      DriveLoadOverWire("127.0.0.1", proxy.port(), schedule, profile);
  ExpectWireByteIdenticalOrStructured(report, oracle, "proxy/seed7");
  EXPECT_GT(proxy.stats().connections_planned, 0);
  proxy.Stop();
  net.Stop();
}

// --- Determinism: same seed, same schedule ---------------------------------

ChaosStats RunSeededBackendTraffic(uint64_t seed,
                                   std::shared_ptr<ServiceCallHandler> sx) {
  ChaosOptions chaos;
  chaos.seed = seed;
  chaos.refuse_rate = 0.2;
  chaos.reset_rate = 0.25;
  chaos.corrupt_rate = 0.25;
  chaos.truncate_rate = 0.25;
  chaos.stall_rate = 0.25;
  chaos.stall_ms = 1.0;
  chaos.blackhole_rate = 0.2;

  BackendServerOptions options;
  options.chaos = chaos;
  BackendServer server(options);
  server.RegisterHandler("SX", std::move(sx));
  EXPECT_TRUE(server.Start().ok());

  RemoteBackendOptions remote;
  remote.timeout_ms = 500;
  remote.wire_retries = 3;
  remote.reconnect.backoff_base_ms = 1.0;
  remote.reconnect.backoff_cap_ms = 2.0;
  remote.eviction_threshold = 1 << 20;  // keep dial order purely serial
  RemoteBackendClient client("127.0.0.1", server.port(), remote);
  for (int i = 0; i < 24; ++i) {
    ServiceRequest request;
    request.chunk_index = i % 4;
    (void)client.Call("SX", request);  // failures are part of the schedule
  }
  server.Stop();
  return server.chaos_stats();
}

TEST(NetChaosTest, SameSeedReproducesTheExactFaultSchedule) {
  SyntheticPair pair = MakePair();
  ChaosStats first = RunSeededBackendTraffic(41, pair.x.backend);
  ChaosStats second = RunSeededBackendTraffic(41, pair.x.backend);
  EXPECT_TRUE(first == second)
      << "same seed, same serial traffic, different fault schedule";
  EXPECT_GT(first.connections_planned, 0);
  EXPECT_GT(first.total_faults(), 0);

  ChaosStats other = RunSeededBackendTraffic(42, pair.x.backend);
  EXPECT_TRUE(first != other) << "seed is not reaching the fault planner";
}

// --- Dial cap & pool semantics ---------------------------------------------

TEST(NetChaosTest, DialCapQueuesThenFailsUnavailableNeverUnbounded) {
  // A peer that accepts and then never handshakes: every dial burns its
  // handshake timeout while holding a dial slot.
  Listener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  std::vector<Socket> held;
  std::thread acceptor([&] {
    while (true) {
      Result<Socket> conn = listener.Accept();
      if (!conn.ok()) return;  // listener closed
      held.push_back(std::move(conn.value()));
    }
  });

  RemoteBackendOptions options;
  options.handshake_timeout_ms = 300;
  options.max_dials = 2;
  options.dial_wait_ms = 0;  // overflow immediately instead of queueing
  options.wire_retries = 0;
  options.eviction_threshold = 1 << 20;
  RemoteBackendClient client("127.0.0.1", listener.port(), options);

  std::vector<std::thread> callers;
  std::vector<Status> statuses(8, Status::OK());
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&, t] {
      statuses[t] = client.Call("SX", ServiceRequest{}).status();
    });
  }
  for (std::thread& t : callers) t.join();

  for (int t = 0; t < 8; ++t) {
    EXPECT_FALSE(statuses[t].ok()) << "caller " << t;
    EXPECT_EQ(statuses[t].code(), StatusCode::kUnavailable) << "caller " << t;
  }
  RemotePoolStats stats = client.stats();
  EXPECT_GT(stats.dial_overflows, 0)
      << "8 concurrent dials against a cap of 2 never overflowed";
  // The cap bounds sockets, not just latency: at most max_dials connections
  // ever reached the rogue listener per overflow-free wave; with 8 callers
  // and 2 slots the rogue saw well under 8 simultaneous sockets.
  EXPECT_LE(stats.connections_opened, 8);

  listener.Close();
  acceptor.join();
  for (Socket& s : held) s.Close();
}

TEST(NetChaosTest, MaxPoolBoundsIdleReuseNotConcurrentDials) {
  BackendServer server;
  server.RegisterHandler("Slow", std::make_shared<SlowEchoHandler>(80));
  ASSERT_TRUE(server.Start().ok());

  RemoteBackendOptions options;
  options.max_pool = 1;  // one *idle* connection kept...
  options.max_dials = 8; // ...but concurrency dials freely (the regression)
  auto client = std::make_shared<RemoteBackendClient>("127.0.0.1",
                                                      server.port(), options);

  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      ServiceRequest request;
      request.chunk_index = t;
      if (!client->Call("Slow", request).ok()) ++failures;
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Concurrent callers were never serialized onto max_pool connections.
  int64_t opened = client->connections_opened();
  EXPECT_GE(opened, 2);

  // ... but idle reuse is bounded: exactly one connection survived.
  EXPECT_EQ(client->stats().connections_discarded, opened - 1);
  ASSERT_TRUE(client->Call("Slow", ServiceRequest{}).ok());
  EXPECT_EQ(client->connections_opened(), opened);  // reused, no redial
  EXPECT_GE(client->stats().connections_reused, 1);
  server.Stop();
}

// --- Poisoned connections --------------------------------------------------

TEST(NetChaosTest, HalfWrittenReplyThenCloseHealsOnAFreshConnection) {
  SyntheticPair pair = MakePair();
  BackendServer real;
  real.RegisterHandler("SX", pair.x.backend);
  ASSERT_TRUE(real.Start().ok());

  // A rogue primary that handshakes, then cuts its reply mid-frame.
  Listener rogue_listener;
  ASSERT_TRUE(rogue_listener.Listen(0).ok());
  std::thread rogue([&] {
    Result<Socket> conn = rogue_listener.Accept();
    if (!conn.ok()) return;
    FrameDecoder decoder;
    if (!RecvFrame(&conn.value(), &decoder).ok()) return;  // hello
    WireWriter ack;
    ack.U16(kWireVersion);
    (void)SendFrame(&conn.value(), FrameType::kHelloAck, ack.Take());
    Result<Frame> call = RecvFrame(&conn.value(), &decoder);
    if (!call.ok()) return;
    WireReader r(call.value().payload);
    uint64_t id = r.U64().value();
    WireWriter w;
    w.U64(id);
    w.Bool(true);
    EncodeServiceResponse(ServiceResponse{}, &w);
    std::string frame = EncodeFrame(FrameType::kCallReply, w.Take());
    (void)conn.value().SendAll(frame.substr(0, frame.size() / 2));
    conn.value().Close();
  });

  std::vector<RemoteEndpoint> endpoints = {
      {"127.0.0.1", rogue_listener.port()}, {"127.0.0.1", real.port()}};
  RemoteBackendOptions options;
  options.wire_retries = 2;
  options.eviction_threshold = 1;
  options.reconnect.backoff_base_ms = 1.0;
  options.reconnect.backoff_cap_ms = 2.0;
  options.reprobe_ms = 1e9;  // the rogue stays out for the whole test
  RemoteBackendClient client(endpoints, options);

  ServiceRequest request;
  Result<ServiceResponse> got = client.Call("SX", request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<ServiceResponse> direct = pair.x.backend->Call(request);
  ASSERT_TRUE(direct.ok());
  ExpectSameResponse(got.value(), direct.value());

  RemotePoolStats stats = client.stats();
  EXPECT_GE(stats.reconnect_attempts, 1);
  EXPECT_GE(stats.connections_discarded, 1);  // the poisoned stream
  ASSERT_EQ(stats.endpoints.size(), 2u);
  EXPECT_TRUE(stats.endpoints[0].evicted);
  EXPECT_FALSE(stats.endpoints[1].evicted);

  rogue.join();
  rogue_listener.Close();
  real.Stop();
}

TEST(NetChaosTest, StaleReplyIdIsDiscardedNeverMisattributed) {
  SyntheticPair pair = MakePair();
  BackendServer real;
  real.RegisterHandler("SX", pair.x.backend);
  ASSERT_TRUE(real.Start().ok());

  // A rogue that answers the call with a *different* call id — a stale or
  // crossed reply. The client must treat it as transport poison, not as
  // the answer.
  Listener rogue_listener;
  ASSERT_TRUE(rogue_listener.Listen(0).ok());
  std::thread rogue([&] {
    Result<Socket> conn = rogue_listener.Accept();
    if (!conn.ok()) return;
    FrameDecoder decoder;
    if (!RecvFrame(&conn.value(), &decoder).ok()) return;  // hello
    WireWriter ack;
    ack.U16(kWireVersion);
    (void)SendFrame(&conn.value(), FrameType::kHelloAck, ack.Take());
    Result<Frame> call = RecvFrame(&conn.value(), &decoder);
    if (!call.ok()) return;
    WireReader r(call.value().payload);
    uint64_t id = r.U64().value();
    // A decodable, plausible — and wrong — reply under a stale id.
    ServiceResponse bogus;
    bogus.tuples.push_back(Tuple({Value(static_cast<int64_t>(666))}));
    bogus.scores.push_back(0.5);
    WireWriter w;
    w.U64(id + 1);
    w.Bool(true);
    EncodeServiceResponse(bogus, &w);
    (void)SendFrame(&conn.value(), FrameType::kCallReply, w.Take());
    // Hold the connection open so the failure is the id mismatch, not EOF.
    std::string sink;
    while (true) {
      Result<size_t> n = conn.value().RecvSome(&sink, 4096);
      if (!n.ok() || n.value() == 0) break;
    }
  });

  std::vector<RemoteEndpoint> endpoints = {
      {"127.0.0.1", rogue_listener.port()}, {"127.0.0.1", real.port()}};
  RemoteBackendOptions options;
  options.wire_retries = 2;
  options.eviction_threshold = 1;
  options.reconnect.backoff_base_ms = 1.0;
  options.reconnect.backoff_cap_ms = 2.0;
  options.reprobe_ms = 1e9;
  RemoteBackendClient client(endpoints, options);

  ServiceRequest request;
  Result<ServiceResponse> got = client.Call("SX", request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<ServiceResponse> direct = pair.x.backend->Call(request);
  ASSERT_TRUE(direct.ok());
  ExpectSameResponse(got.value(), direct.value());  // not the bogus tuple

  EXPECT_GE(client.stats().connections_discarded, 1);
  EXPECT_TRUE(client.stats().endpoints[0].evicted);

  rogue_listener.Close();
  rogue.join();
  real.Stop();
}

TEST(NetChaosTest, TimedOutConnectionIsNeverPooledForTheNextCall) {
  // The first call times out while its (late) reply is still in flight; the
  // second call must dial fresh — reading the stale reply off the pooled
  // socket would misattribute call N's answer to call N+1.
  BackendServer server;
  server.RegisterHandler("Slow",
                         std::make_shared<SlowEchoHandler>(400,
                                                           /*slow_calls=*/1));
  ASSERT_TRUE(server.Start().ok());

  RemoteBackendOptions options;
  options.timeout_ms = 100;
  RemoteBackendClient client("127.0.0.1", server.port(), options);

  ServiceRequest first;
  first.chunk_index = 0;
  Result<ServiceResponse> timed_out = client.Call("Slow", first);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  ServiceRequest second;
  second.chunk_index = 1;
  Result<ServiceResponse> got = client.Call("Slow", second);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().tuples.size(), 1u);
  // Chunk 1's echo, not the stale chunk-0 reply from the first connection.
  EXPECT_TRUE(got.value().tuples[0] ==
              Tuple({Value(static_cast<int64_t>(1))}));
  EXPECT_EQ(client.connections_opened(), 2);  // the poisoned conn was dropped
  server.Stop();
}

TEST(NetChaosTest, CheckoutCheckinHammerStaysCorrectUnderConcurrency) {
  SyntheticPair pair = MakePair();
  BackendServer server;
  server.RegisterHandler("SX", pair.x.backend);
  ASSERT_TRUE(server.Start().ok());

  // Direct references per chunk, computed once up front.
  std::vector<ServiceResponse> want;
  for (int chunk = 0; chunk < 4; ++chunk) {
    ServiceRequest request;
    request.chunk_index = chunk;
    Result<ServiceResponse> direct = pair.x.backend->Call(request);
    ASSERT_TRUE(direct.ok());
    want.push_back(direct.value());
  }

  RemoteBackendOptions options;
  options.max_pool = 4;
  options.ping_on_checkout = true;  // health gate on every checkout
  options.wire_retries = 2;
  auto client = std::make_shared<RemoteBackendClient>("127.0.0.1",
                                                      server.port(), options);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        int chunk = (t + i) % 4;
        ServiceRequest request;
        request.chunk_index = chunk;
        Result<ServiceResponse> got = client->Call("SX", request);
        if (!got.ok() || got.value().scores != want[chunk].scores ||
            got.value().tuples.size() != want[chunk].tuples.size()) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.calls_served(), kThreads * kCallsPerThread);
  RemotePoolStats stats = client->stats();
  EXPECT_GT(stats.pings_sent, 0);
  EXPECT_EQ(stats.endpoints_evicted, 0);
  server.Stop();
}

// --- Deadline propagation --------------------------------------------------

TEST(NetChaosTest, TransportedDeadlineRejectsCallsThatQueuedPastTheirBudget) {
  BackendServer server;
  server.RegisterHandler("Slow", std::make_shared<SlowEchoHandler>(150));
  ASSERT_TRUE(server.Start().ok());

  // A hand-rolled backend client that pipelines two calls down one
  // connection: the second frame queues behind the first's 150 ms handler
  // and arrives at the executor with its 10 ms budget already spent.
  Result<Socket> sock = ConnectTcp("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  FrameDecoder decoder;
  ASSERT_TRUE(
      ClientHello(&sock.value(), &decoder, WireRole::kBackendClient, 1000)
          .ok());

  auto encode_call = [](uint64_t id, double deadline_ms) {
    ServiceRequest request;
    request.chunk_index = static_cast<int>(id);
    request.deadline_ms = deadline_ms;
    WireWriter w;
    w.U64(id);
    w.Str("Slow");
    EncodeServiceRequest(request, &w);
    return w.Take();
  };
  // One send, two frames: the pipelined burst a real client under load
  // produces. Call 2 sits behind call 1's 150 ms handler.
  ASSERT_TRUE(sock.value()
                  .SendAll(EncodeFrame(FrameType::kCall, encode_call(1, -1.0)) +
                           EncodeFrame(FrameType::kCall, encode_call(2, 10.0)))
                  .ok());

  // First reply: served normally.
  Result<Frame> reply1 = RecvFrame(&sock.value(), &decoder, 2000);
  ASSERT_TRUE(reply1.ok()) << reply1.status().ToString();
  {
    WireReader r(reply1.value().payload);
    EXPECT_EQ(r.U64().value(), 1u);
    EXPECT_TRUE(r.Bool().value());  // ok: the handler ran
  }
  // Second reply: rejected without running the handler — its queue wait
  // exceeded the transported budget.
  Result<Frame> reply2 = RecvFrame(&sock.value(), &decoder, 2000);
  ASSERT_TRUE(reply2.ok()) << reply2.status().ToString();
  {
    WireReader r(reply2.value().payload);
    EXPECT_EQ(r.U64().value(), 2u);
    EXPECT_FALSE(r.Bool().value());
    Status remote = Status::OK();
    ASSERT_TRUE(DecodeStatus(&r, &remote).ok());
    EXPECT_EQ(remote.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server.deadline_rejections(), 1);
  EXPECT_EQ(server.calls_served(), 1);  // the handler never saw call 2
  sock.value().Close();
  server.Stop();
}

TEST(NetChaosTest, BackendFrameQueueStopsAtThePipelineDepth) {
  BackendServer server;
  // Only the first call is slow: the whole burst lands while it runs.
  server.RegisterHandler("Slow", std::make_shared<SlowEchoHandler>(100, 1));
  ASSERT_TRUE(server.Start().ok());

  Result<Socket> sock = ConnectTcp("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  FrameDecoder decoder;
  ASSERT_TRUE(
      ClientHello(&sock.value(), &decoder, WireRole::kBackendClient, 1000)
          .ok());

  // A pipelined burst many times the cap, sent from its own thread so a
  // backpressured send cannot deadlock against the replies read below.
  constexpr uint64_t kCalls = 8 * kPipelineDepth;
  std::string burst;
  for (uint64_t id = 1; id <= kCalls; ++id) {
    ServiceRequest request;
    request.chunk_index = static_cast<int>(id);
    WireWriter w;
    w.U64(id);
    w.Str("Slow");
    EncodeServiceRequest(request, &w);
    burst += EncodeFrame(FrameType::kCall, w.Take());
  }
  Status sent = Status::OK();
  std::thread sender([&] { sent = sock.value().SendAll(burst); });

  // Every call is still answered, in order.
  for (uint64_t id = 1; id <= kCalls; ++id) {
    Result<Frame> reply = RecvFrame(&sock.value(), &decoder, 5000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    WireReader r(reply.value().payload);
    EXPECT_EQ(r.U64().value(), id);
    EXPECT_TRUE(r.Bool().value());
  }
  sender.join();
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_EQ(server.calls_served(), static_cast<int64_t>(kCalls));
  // The server read ahead no further than the cap; the rest of the burst
  // waited in the kernel.
  EXPECT_EQ(server.peak_queue_depth(), static_cast<int64_t>(kPipelineDepth));
  sock.value().Close();
  server.Stop();
}

// --- Slow-loris defense ----------------------------------------------------

TEST(NetChaosTest, WriteTimeoutBoundsASendToAStalledPeer) {
  Listener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  std::atomic<bool> release{false};
  std::thread stalled_peer([&] {
    Result<Socket> conn = listener.Accept();
    while (!release.load()) {  // accepted, never reads
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (conn.ok()) conn.value().Close();
  });

  Result<Socket> sock = ConnectTcp("127.0.0.1", listener.port(), 1000);
  ASSERT_TRUE(sock.ok());
  int send_buf = 4096;  // shrink so the kernel can't absorb the payload
  setsockopt(sock.value().fd(), SOL_SOCKET, SO_SNDBUF, &send_buf,
             sizeof(send_buf));
  sock.value().SetWriteTimeout(100);

  auto start = std::chrono::steady_clock::now();
  Status sent = sock.value().SendAll(std::string(4u << 20, 'x'));
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed_ms, 5000.0);  // bounded, not a slow-loris hostage

  release.store(true);
  stalled_peer.join();
  listener.Close();
  sock.value().Close();
}

// --- Over-the-wire failover (the acceptance scenario) ----------------------

std::string WithService(std::string text, const std::string& from,
                        const std::string& to) {
  size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from << " not in: " << text;
  text.replace(pos, from.size(), to);
  return text;
}

Result<QueryPlan> OptimizePlan(std::shared_ptr<ServiceRegistry> registry,
                               const std::string& query_text) {
  OptimizerOptions optimizer_options;
  optimizer_options.k = 10;
  QuerySession session(std::move(registry), optimizer_options);
  SECO_ASSIGN_OR_RETURN(BoundQuery bound, session.Prepare(query_text));
  SECO_ASSIGN_OR_RETURN(OptimizationResult optimized, session.Optimize(bound));
  return std::move(optimized.plan);
}

void ExpectSameCombinations(const std::vector<Combination>& expected,
                            const std::vector<Combination>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("combination " + std::to_string(i));
    EXPECT_DOUBLE_EQ(actual[i].combined_score, expected[i].combined_score);
    EXPECT_TRUE(actual[i].missing_atoms.empty());
    ASSERT_EQ(actual[i].components.size(), expected[i].components.size());
    for (size_t c = 0; c < expected[i].components.size(); ++c) {
      EXPECT_TRUE(actual[i].components[c] == expected[i].components[c]);
    }
  }
}

TEST(NetChaosTest, DeadReplicaIsEvictedAndFailedOverAcrossTheWire) {
  // Topology: every interface lives behind a live BackendServer, except
  // that Hotel1 is routed through a client whose only endpoint is a dead
  // port — the wire-level analogue of a backend that stopped responding.
  // The pool must evict the endpoint, exhaust, and fast-fail kUnavailable;
  // the resilient handler raises ServiceLostEvent; PlanRepairer fails over
  // to Hotel2 *over the live wire*; and the answers must be identical to
  // planning against Hotel2 from the start.
  SECO_ASSERT_OK_AND_ASSIGN(Scenario scenario, MakeConferenceScenario());
  SECO_ASSERT_OK(AddReplica(&scenario, "Hotel1", "Hotel2").status());

  BackendServer backend;
  backend.ExposeRegistry(*scenario.registry);
  SECO_ASSERT_OK(backend.Start());

  uint16_t dead_port;
  {
    Listener probe;
    SECO_ASSERT_OK(probe.Listen(0));
    dead_port = probe.port();
    probe.Close();
  }

  auto live_client = std::make_shared<RemoteBackendClient>(
      "127.0.0.1", backend.port());
  RemoteBackendOptions dead_options;
  dead_options.eviction_threshold = 1;
  dead_options.wire_retries = 1;
  dead_options.reconnect.backoff_base_ms = 1.0;
  dead_options.reconnect.backoff_cap_ms = 2.0;
  dead_options.reprobe_ms = 1e9;  // stays dead for the whole query
  auto dead_client = std::make_shared<RemoteBackendClient>(
      "127.0.0.1", dead_port, dead_options);

  SECO_ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<ServiceRegistry> remote,
      MakeRemoteRegistryRouted(*scenario.registry, live_client,
                               {{"Hotel1", dead_client}}));

  SECO_ASSERT_OK_AND_ASSIGN(QueryPlan plan,
                            OptimizePlan(remote, scenario.query_text));
  SECO_ASSERT_OK_AND_ASSIGN(
      QueryPlan replica_plan,
      OptimizePlan(remote,
                   WithService(scenario.query_text, "Hotel1", "Hotel2")));

  StreamingOptions stream_options;
  stream_options.k = 10;
  stream_options.input_bindings = scenario.inputs;

  // Reference: the replica was the plan's hotel service from the start —
  // everything over the live backend.
  StreamingEngine reference_engine(stream_options);
  SECO_ASSERT_OK_AND_ASSIGN(StreamingResult reference,
                            reference_engine.Execute(replica_plan));
  ASSERT_FALSE(reference.combinations.empty());
  ASSERT_TRUE(reference.complete);

  RepairOptions repair;
  repair.policy = RepairPolicy::kFailover;
  repair.registry = remote.get();
  repair.optimizer.k = 10;
  StreamingOptions options = stream_options;
  options.repair = repair;
  StreamingEngine engine(options);
  SECO_ASSERT_OK_AND_ASSIGN(StreamingResult repaired, engine.Execute(plan));

  EXPECT_TRUE(repaired.complete);
  ExpectSameCombinations(reference.combinations, repaired.combinations);
  ASSERT_GE(repaired.repair.log.size(), 1u);
  EXPECT_EQ(repaired.repair.log[0].lost, "Hotel1");
  EXPECT_EQ(repaired.repair.log[0].replacement, "Hotel2");

  // The wire layer did its half: evicted the dead endpoint, attempted a
  // reconnect, then declared exhaustion instead of hanging.
  RemotePoolStats dead_stats = dead_client->stats();
  EXPECT_GE(dead_stats.endpoints_evicted, 1);
  EXPECT_GE(dead_stats.reconnect_attempts, 1);
  EXPECT_GE(dead_stats.endpoint_exhaustions, 1);
  ASSERT_EQ(dead_stats.endpoints.size(), 1u);
  EXPECT_TRUE(dead_stats.endpoints[0].evicted);

  backend.Stop();
}

}  // namespace
}  // namespace seco
