// Wire codec and framing (docs/NETWORK.md): primitive and composite
// round-trips are bit-exact (doubles travel as IEEE-754 bit patterns), the
// answer-body codec re-encodes to identical bytes (the foundation of the
// wire-vs-in-process oracle), and the frame decoder survives hostile input
// — truncation, oversized length prefixes (rejected before any allocation),
// garbage, and arbitrary fragmentation across recv boundaries.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace seco {
namespace {

// --- Primitives ------------------------------------------------------------

TEST(WirePrimitivesTest, IntegerRoundTripsAreExact) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(std::numeric_limits<int64_t>::min());
  w.Bool(true);
  w.Str("hello");

  WireReader r(w.buffer());
  EXPECT_EQ(r.U8().value(), 0xAB);
  EXPECT_EQ(r.U16().value(), 0xBEEF);
  EXPECT_EQ(r.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32().value(), -42);
  EXPECT_EQ(r.I64().value(), std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(r.Bool().value());
  EXPECT_EQ(r.Str().value(), "hello");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WirePrimitivesTest, DoublesRoundTripBitExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0 / 3.0,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -12345.6789e-300};
  for (double v : cases) {
    WireWriter w;
    w.F64(v);
    WireReader r(w.buffer());
    double back = r.F64().value();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0);
  }
  // NaN payload bits survive too.
  double nan = std::nan("0x5ec0");
  WireWriter w;
  w.F64(nan);
  WireReader r(w.buffer());
  double back = r.F64().value();
  EXPECT_EQ(std::memcmp(&nan, &back, sizeof(nan)), 0);
}

TEST(WirePrimitivesTest, TruncatedReadsFailInsteadOfOverReading) {
  WireWriter w;
  w.U16(7);
  WireReader r(w.buffer());
  EXPECT_FALSE(r.U32().ok());
  // A string length beyond the remaining payload is rejected up front.
  WireWriter w2;
  w2.U32(1000);  // claims 1000 bytes, none follow
  WireReader r2(w2.buffer());
  EXPECT_FALSE(r2.Str().ok());
}

TEST(WirePrimitivesTest, TrailingBytesAreAProtocolError) {
  WireWriter w;
  w.U8(1);
  w.U8(2);
  WireReader r(w.buffer());
  ASSERT_TRUE(r.U8().ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
}

// --- Value / tuple / status codecs ----------------------------------------

TEST(WireCodecTest, ValueRoundTripsAllTypes) {
  const Value values[] = {Value(), Value(true), Value(int64_t{-7}),
                          Value(2.5), Value(std::string("seco"))};
  for (const Value& v : values) {
    WireWriter w;
    EncodeValue(v, &w);
    WireReader r(w.buffer());
    Result<Value> back = DecodeValue(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(v == back.value()) << v.ToString();
  }
}

TEST(WireCodecTest, TupleWithRepeatingGroupRoundTrips) {
  std::vector<TupleSlot> slots;
  slots.emplace_back(Value("movie"));
  RepeatingGroupValue genres;
  genres.push_back({Value("drama"), Value(int64_t{1})});
  genres.push_back({Value("comedy"), Value(int64_t{2})});
  slots.emplace_back(genres);
  slots.emplace_back(Value(4.5));
  Tuple tuple(std::move(slots));

  WireWriter w;
  EncodeTuple(tuple, &w);
  WireReader r(w.buffer());
  Result<Tuple> back = DecodeTuple(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(tuple == back.value());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireCodecTest, StatusRoundTripsCodeAndMessageVerbatim) {
  const Status cases[] = {
      Status::OK(),
      Status::Unavailable("transient fault on attempt 2"),
      Status::DeadlineExceeded("call deadline 50 ms"),
      Status::Rejected("interactive admission queue full"),
      Status::NotFound("no handler registered for 'Movie11'")};
  for (const Status& s : cases) {
    WireWriter w;
    EncodeStatus(s, &w);
    WireReader r(w.buffer());
    Status back = Status::OK();
    ASSERT_TRUE(DecodeStatus(&r, &back).ok());
    EXPECT_EQ(back.code(), s.code());
    EXPECT_EQ(back.message(), s.message());
  }
}

TEST(WireCodecTest, ServiceRequestAndResponseRoundTrip) {
  ServiceRequest request;
  request.inputs = {Value("Roma"), Value(int64_t{3})};
  request.chunk_index = 2;
  request.attempt = 1;
  request.deadline_ms = 87.5;
  WireWriter w;
  EncodeServiceRequest(request, &w);
  WireReader r(w.buffer());
  Result<ServiceRequest> req_back = DecodeServiceRequest(&r);
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back.value().inputs, request.inputs);
  EXPECT_EQ(req_back.value().chunk_index, 2);
  EXPECT_EQ(req_back.value().attempt, 1);
  EXPECT_EQ(req_back.value().deadline_ms, 87.5);

  // The deadline is delivery metadata like `attempt`: two requests that
  // differ only in transported budget are the SAME logical request (same
  // retry schedule, same cache identity).
  ServiceRequest no_deadline = request;
  no_deadline.deadline_ms = -1.0;
  EXPECT_EQ(RequestOrdinal(request), RequestOrdinal(no_deadline));

  ServiceResponse response;
  response.tuples.push_back(Tuple({TupleSlot(Value("Up"))}));
  response.scores = {0.9, 0.7};
  response.exhausted = true;
  response.latency_ms = 120.5;
  response.fault_overhead_ms = 3.25;
  WireWriter w2;
  EncodeServiceResponse(response, &w2);
  WireReader r2(w2.buffer());
  Result<ServiceResponse> resp_back = DecodeServiceResponse(&r2);
  ASSERT_TRUE(resp_back.ok());
  EXPECT_EQ(resp_back.value().tuples.size(), 1u);
  EXPECT_EQ(resp_back.value().scores, response.scores);
  EXPECT_TRUE(resp_back.value().exhausted);
  EXPECT_EQ(resp_back.value().latency_ms, 120.5);
  EXPECT_EQ(resp_back.value().fault_overhead_ms, 3.25);
}

TEST(WireCodecTest, QueryRequestRoundTripsTransportedFields) {
  QueryRequest request;
  request.query_text = "SELECT ...";
  request.priority = PriorityClass::kBatch;
  request.deadline_ms = 75.5;
  request.k = 7;
  request.max_calls = 123;
  request.streaming = true;
  request.input_bindings.emplace("City", Value("Roma"));
  request.input_bindings.emplace("Count", Value(int64_t{4}));

  Result<QueryRequest> back = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().query_text, request.query_text);
  EXPECT_EQ(back.value().priority, PriorityClass::kBatch);
  EXPECT_EQ(back.value().deadline_ms, 75.5);
  EXPECT_EQ(back.value().k, 7);
  EXPECT_EQ(back.value().max_calls, 123);
  EXPECT_TRUE(back.value().streaming);
  EXPECT_EQ(back.value().input_bindings, request.input_bindings);
  // The re-encoded request is byte-identical (deterministic encoding).
  EXPECT_EQ(EncodeQueryRequest(back.value()), EncodeQueryRequest(request));
}

// --- Answer body -----------------------------------------------------------

QueryResponse SampleExecutionResponse() {
  QueryResponse response;
  response.outcome = ServedOutcome::kDegraded;
  response.degradation_level = 2;
  response.priority = PriorityClass::kInteractive;
  response.answer_cache_hit = true;

  ExecutionResult& e = response.execution;
  Combination combo;
  combo.components.push_back(Tuple({TupleSlot(Value("Up"))}));
  combo.component_scores = {0.9};
  combo.combined_score = 0.9;
  combo.missing_atoms = {1};
  e.combinations.push_back(combo);
  e.total_calls = 11;
  e.elapsed_ms = 350.25;
  e.total_latency_ms = 780.5;
  e.total_combinations_produced = 40;
  e.cache_hits = 3;
  e.cache_misses = 8;
  e.wall_clock_ms = 123.0;  // excluded from the body
  e.node_stats[2] = NodeRuntimeStats{4, 210.0, 12, 340.0, 1};
  e.degraded.push_back(
      DegradedStatus{3, "Theatre11", 2, "service is down", false, false});
  e.open_breakers = {"Theatre11"};
  e.reliability.attempts = 15;
  e.reliability.retries = 4;
  e.reliability.transient_failures = 4;
  e.reliability.backoff_ms = 12.5;
  e.reliability.breakers.push_back(
      CircuitBreakerState{"Theatre11", BreakerPhase::kOpen, 1, 3, 5});
  e.reliability.services_lost.push_back(
      ServiceLostEvent{"Theatre11", 42, "retries exhausted", true});
  e.repair.events = 1;
  e.repair.replans = 1;
  e.repair.replan_ms = 9.5;  // wall clock: excluded from the body
  e.repair.salvaged_calls = 6;
  e.repair.abandoned_ms = 44.0;
  e.repair.log.push_back(RepairEvent{"Theatre11", "Theatre12", "failover"});
  e.complete = false;
  e.degradation_level = 2;
  return response;
}

TEST(AnswerBodyTest, ExecutionResponseRoundTripsAndReEncodesIdentically) {
  QueryResponse response = SampleExecutionResponse();
  std::string body = EncodeAnswerBody(response);
  Result<QueryResponse> back = DecodeAnswerBody(body);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(back.value().outcome, ServedOutcome::kDegraded);
  EXPECT_EQ(back.value().degradation_level, 2);
  EXPECT_TRUE(back.value().answer_cache_hit);
  const ExecutionResult& e = back.value().execution;
  EXPECT_EQ(e.combinations.size(), 1u);
  EXPECT_EQ(e.combinations[0].missing_atoms, std::vector<int>{1});
  EXPECT_EQ(e.total_calls, 11);
  EXPECT_EQ(e.elapsed_ms, 350.25);
  EXPECT_EQ(e.node_stats.at(2).calls, 4);
  EXPECT_EQ(e.reliability.retries, 4);
  EXPECT_EQ(e.reliability.breakers[0].phase, BreakerPhase::kOpen);
  EXPECT_EQ(e.repair.log[0].replacement, "Theatre12");
  EXPECT_FALSE(e.complete);

  // Decode(Encode(x)) re-encodes to the same bytes: the codec is a
  // bijection on its transported fields.
  EXPECT_EQ(EncodeAnswerBody(back.value()), body);
}

TEST(AnswerBodyTest, WallClockFieldsDoNotAffectTheBody) {
  QueryResponse a = SampleExecutionResponse();
  QueryResponse b = SampleExecutionResponse();
  b.execution.wall_clock_ms = 9999.0;
  b.execution.repair.replan_ms = 777.0;
  b.queue_wait_ms = 55.0;
  EXPECT_EQ(EncodeAnswerBody(a), EncodeAnswerBody(b));
}

TEST(AnswerBodyTest, ScheduleDependentLossFieldsDoNotAffectTheBody) {
  // Which request declared a service lost races speculation against the
  // demand path; only the set of lost interfaces is deterministic.
  QueryResponse a = SampleExecutionResponse();
  QueryResponse b = SampleExecutionResponse();
  ServiceLostEvent& lost = b.execution.reliability.services_lost[0];
  lost.ordinal = 7;
  lost.reason = "deadline exceeded";
  lost.breaker_open = false;
  EXPECT_EQ(EncodeAnswerBody(a), EncodeAnswerBody(b));

  Result<QueryResponse> back = DecodeAnswerBody(EncodeAnswerBody(b));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().execution.reliability.services_lost.size(), 1u);
  EXPECT_EQ(back.value().execution.reliability.services_lost[0].interface_name,
            "Theatre11");
}

TEST(AnswerBodyTest, StreamingResponseRoundTrips) {
  QueryResponse response;
  response.outcome = ServedOutcome::kCompleted;
  response.streamed = true;
  StreamingResult& s = response.streaming;
  Combination combo;
  combo.components.push_back(Tuple({TupleSlot(Value(int64_t{5}))}));
  combo.component_scores = {0.4};
  combo.combined_score = 0.4;
  s.combinations.push_back(combo);
  s.total_calls = 6;
  s.total_latency_ms = 99.75;
  s.exhausted = true;
  s.cache_hits = 2;
  s.cache_misses = 4;
  s.speculative_calls = 3;
  s.speculative_wasted = 1;
  s.node_stats[0] = NodeRuntimeStats{6, 99.75, 10, 99.75, 2};

  std::string body = EncodeAnswerBody(response);
  Result<QueryResponse> back = DecodeAnswerBody(body);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().streamed);
  EXPECT_EQ(back.value().streaming.total_calls, 6);
  EXPECT_TRUE(back.value().streaming.exhausted);
  EXPECT_EQ(back.value().streaming.speculative_calls, 3);
  EXPECT_EQ(EncodeAnswerBody(back.value()), body);
}

TEST(AnswerBodyTest, ShedResponseCarriesNoResultPayload) {
  QueryResponse response;
  response.outcome = ServedOutcome::kShed;
  response.status = Status::Rejected("queue full; retry after 60 ms");
  response.retry_after_ms = 60.0;
  std::string body = EncodeAnswerBody(response);
  Result<QueryResponse> back = DecodeAnswerBody(body);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().outcome, ServedOutcome::kShed);
  EXPECT_EQ(back.value().status.code(), StatusCode::kRejected);
  EXPECT_EQ(back.value().retry_after_ms, 60.0);
  EXPECT_TRUE(back.value().execution.combinations.empty());
}

TEST(AnswerBodyTest, DecodeRejectsTruncatedAndGarbageBodies) {
  std::string body = EncodeAnswerBody(SampleExecutionResponse());
  for (size_t cut : {size_t{0}, size_t{1}, body.size() / 2, body.size() - 1}) {
    EXPECT_FALSE(DecodeAnswerBody(body.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(DecodeAnswerBody(body + "x").ok());
  std::string garbage = body;
  garbage[0] = char(0xFF);  // bad version byte
  EXPECT_FALSE(DecodeAnswerBody(garbage).ok());
}

TEST(AnswerBodyTest, HexRenderingIsStable) {
  EXPECT_EQ(AnswerBodyHex(std::string("\x00\x7f\xff", 3)), "007fff");
}

// --- Wire status mapping ---------------------------------------------------

TEST(WireStatusTest, OutcomesMapOneToOneAndDrainingFoldsToShed) {
  for (ServedOutcome outcome :
       {ServedOutcome::kCompleted, ServedOutcome::kDegraded,
        ServedOutcome::kShed, ServedOutcome::kDeadlineExpired,
        ServedOutcome::kFailed}) {
    QueryResponse response;
    response.outcome = outcome;
    EXPECT_EQ(OutcomeOfWireStatus(WireStatusOf(response)), outcome);
  }
  EXPECT_EQ(OutcomeOfWireStatus(WireStatus::kDraining), ServedOutcome::kShed);
}

// --- Frame decoder robustness (satellite) ----------------------------------

TEST(FrameDecoderTest, WholeFrameRoundTrips) {
  std::string encoded = EncodeFrame(FrameType::kQuery, "payload");
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(encoded).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kQuery);
  EXPECT_EQ(frame.payload, "payload");
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameDecoderTest, CorruptedPayloadFailsItsChecksumAndPoisons) {
  // Flip each payload byte in turn: every single-bit-of-damage variant must
  // be caught by the frame checksum — silent corruption is the one failure
  // mode a length-prefixed stream cannot otherwise see.
  std::string encoded = EncodeFrame(FrameType::kQuery, "payload-bytes");
  for (size_t i = kFrameHeaderBytes; i < encoded.size(); ++i) {
    std::string damaged = encoded;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x20);
    FrameDecoder decoder;
    // Feed succeeds: header length/type are plausible, the damage is in
    // the payload and only detectable at pop time.
    ASSERT_TRUE(decoder.Feed(damaged).ok()) << i;
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame)) << i;
    EXPECT_TRUE(decoder.poisoned()) << i;
  }
}

TEST(FrameDecoderTest, CorruptedChecksumFieldAlsoPoisons) {
  std::string encoded = EncodeFrame(FrameType::kQuery, "payload");
  for (size_t i = 5; i < kFrameHeaderBytes; ++i) {  // the 4 checksum bytes
    std::string damaged = encoded;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(damaged).ok()) << i;
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame)) << i;
    EXPECT_TRUE(decoder.poisoned()) << i;
  }
}

TEST(FrameDecoderTest, TruncatedFramesNeverPop) {
  std::string encoded = EncodeFrame(FrameType::kQuery, "0123456789");
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(encoded.substr(0, cut)).ok()) << cut;
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame)) << cut;
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(FrameDecoderTest, OversizedLengthPrefixIsRejectedBeforeBuffering) {
  // 0xFFFFFFFF-byte frame announcement: must fail the moment the header is
  // complete, without ever allocating for the payload.
  std::string header(4, char(0xFF));
  header.push_back(static_cast<char>(FrameType::kQuery));
  FrameDecoder decoder;
  Status fed = decoder.Feed(header);
  EXPECT_FALSE(fed.ok());
  EXPECT_TRUE(decoder.poisoned());
  // Only the 5 header bytes were ever accepted.
  EXPECT_LE(decoder.pending_bytes(), 5u);
  // A poisoned decoder rejects everything from then on.
  EXPECT_FALSE(decoder.Feed("more").ok());
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(FrameDecoderTest, JustOverTheCapFailsJustUnderPasses) {
  {
    std::string header;
    WireWriter w;
    w.U32(kMaxFramePayload + 1);
    w.U8(static_cast<uint8_t>(FrameType::kResultBody));
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(w.buffer()).ok());
  }
  {
    WireWriter w;
    w.U32(kMaxFramePayload);
    w.U8(static_cast<uint8_t>(FrameType::kResultBody));
    FrameDecoder decoder;
    EXPECT_TRUE(decoder.Feed(w.buffer()).ok());
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(FrameDecoderTest, OversizedHeaderBehindAPipelinedFrameIsRejected) {
  // A pipelined burst: a valid frame and the next frame's oversized header
  // arriving in ONE Feed chunk. The second header never lands alone at the
  // buffer tail, but it must be validated (and rejected) all the same —
  // otherwise the decoder would buffer everything fed while waiting for a
  // ~4 GiB payload that never completes.
  std::string chunk = EncodeFrame(FrameType::kPing, "cookie99");
  WireWriter bad;
  bad.U32(0xFFFFFFFF);
  bad.U8(static_cast<uint8_t>(FrameType::kQuery));
  chunk += bad.Take();

  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(chunk).ok());
  EXPECT_TRUE(decoder.poisoned());
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(FrameDecoderTest, UnknownTypeBehindAPipelinedFrameIsRejected) {
  std::string chunk = EncodeFrame(FrameType::kQuery, "q1") +
                      EncodeFrame(FrameType::kQuery, "q2");
  WireWriter bad;
  bad.U32(3);
  bad.U8(0xEE);  // not a FrameType
  chunk += bad.Take();
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(chunk).ok());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameDecoderTest, ManyFramesInOneChunkAllPop) {
  // The happy-path counterpart: header validation across a batched chunk
  // must not reject or skip legitimate pipelined frames.
  std::string chunk;
  for (int i = 0; i < 10; ++i) {
    chunk += EncodeFrame(FrameType::kQuery, std::string(i * 17, 'x'));
  }
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(chunk).ok());
  Frame frame;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(decoder.Next(&frame)) << i;
    EXPECT_EQ(frame.type, FrameType::kQuery);
    EXPECT_EQ(frame.payload.size(), static_cast<size_t>(i * 17));
  }
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameDecoderTest, GarbageFrameTypeIsRejected) {
  WireWriter w;
  w.U32(3);
  w.U8(0xEE);  // not a FrameType
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(w.buffer()).ok());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameDecoderTest, ByteAtATimeFeedReassemblesInterleavedFrames) {
  // Three frames of different sizes, delivered one byte per Feed — the
  // harshest recv fragmentation.
  std::string stream = EncodeFrame(FrameType::kHello, "") +
                       EncodeFrame(FrameType::kQuery, std::string(1000, 'q')) +
                       EncodeFrame(FrameType::kGoodbye, "bye");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (char c : stream) {
    ASSERT_TRUE(decoder.Feed(&c, 1).ok());
    Frame frame;
    while (decoder.Next(&frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_TRUE(frames[0].payload.empty());
  EXPECT_EQ(frames[1].type, FrameType::kQuery);
  EXPECT_EQ(frames[1].payload, std::string(1000, 'q'));
  EXPECT_EQ(frames[2].type, FrameType::kGoodbye);
  EXPECT_EQ(frames[2].payload, "bye");
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameDecoderTest, LongLivedConnectionBufferStaysBounded) {
  // Pump many frames through one decoder; the consumed prefix must be
  // compacted away rather than growing forever.
  FrameDecoder decoder;
  std::string frame = EncodeFrame(FrameType::kPing, std::string(512, 'p'));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(decoder.Feed(frame).ok());
    Frame out;
    ASSERT_TRUE(decoder.Next(&out));
  }
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

}  // namespace
}  // namespace seco
