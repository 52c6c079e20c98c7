#include "net/wire.h"

#include <cstring>

namespace seco {

namespace {

/// Little-endian byte packing, independent of host endianness.
void PutLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t GetLE(const char* data, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  return v;
}

bool KnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kError:
    case FrameType::kGoodbye:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kQuery:
    case FrameType::kResultHeader:
    case FrameType::kResultBody:
    case FrameType::kResultEnd:
    case FrameType::kCall:
    case FrameType::kCallReply:
    case FrameType::kCancel:
      return true;
  }
  return false;
}

}  // namespace

WireStatus WireStatusOf(const QueryResponse& response) {
  switch (response.outcome) {
    case ServedOutcome::kCompleted:
      return WireStatus::kOk;
    case ServedOutcome::kDegraded:
      return WireStatus::kDegraded;
    case ServedOutcome::kShed:
      return WireStatus::kShed;
    case ServedOutcome::kDeadlineExpired:
      return WireStatus::kDeadline;
    case ServedOutcome::kFailed:
      return WireStatus::kFailed;
    case ServedOutcome::kCancelled:
      return WireStatus::kCancelled;
  }
  return WireStatus::kFailed;
}

ServedOutcome OutcomeOfWireStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return ServedOutcome::kCompleted;
    case WireStatus::kDegraded:
      return ServedOutcome::kDegraded;
    case WireStatus::kShed:
    case WireStatus::kDraining:
      return ServedOutcome::kShed;
    case WireStatus::kDeadline:
      return ServedOutcome::kDeadlineExpired;
    case WireStatus::kFailed:
      return ServedOutcome::kFailed;
    case WireStatus::kCancelled:
      return ServedOutcome::kCancelled;
  }
  return ServedOutcome::kFailed;
}

const char* WireStatusToString(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kDegraded:
      return "degraded";
    case WireStatus::kShed:
      return "shed";
    case WireStatus::kDeadline:
      return "deadline";
    case WireStatus::kFailed:
      return "failed";
    case WireStatus::kDraining:
      return "draining";
    case WireStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

void WireWriter::U16(uint16_t v) { PutLE(&out_, v, 2); }
void WireWriter::U32(uint32_t v) { PutLE(&out_, v, 4); }
void WireWriter::U64(uint64_t v) { PutLE(&out_, v, 8); }

void WireWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

void WireWriter::Bytes(const void* data, size_t len) {
  out_.append(static_cast<const char*>(data), len);
}

Result<uint8_t> WireReader::U8() {
  if (pos_ + 1 > size_) return Status::InvalidArgument("wire: truncated u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> WireReader::U16() {
  if (pos_ + 2 > size_) return Status::InvalidArgument("wire: truncated u16");
  uint16_t v = static_cast<uint16_t>(GetLE(data_ + pos_, 2));
  pos_ += 2;
  return v;
}

Result<uint32_t> WireReader::U32() {
  if (pos_ + 4 > size_) return Status::InvalidArgument("wire: truncated u32");
  uint32_t v = static_cast<uint32_t>(GetLE(data_ + pos_, 4));
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::U64() {
  if (pos_ + 8 > size_) return Status::InvalidArgument("wire: truncated u64");
  uint64_t v = GetLE(data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<int32_t> WireReader::I32() {
  SECO_ASSIGN_OR_RETURN(uint32_t v, U32());
  return static_cast<int32_t>(v);
}

Result<int64_t> WireReader::I64() {
  SECO_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::F64() {
  SECO_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> WireReader::Bool() {
  SECO_ASSIGN_OR_RETURN(uint8_t v, U8());
  if (v > 1) return Status::InvalidArgument("wire: bool byte out of range");
  return v == 1;
}

Result<std::string> WireReader::Str() {
  SECO_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (len > remaining()) {
    return Status::InvalidArgument("wire: string length " +
                                   std::to_string(len) +
                                   " exceeds remaining payload");
  }
  std::string s(data_ + pos_, len);
  pos_ += len;
  return s;
}

Status WireReader::ExpectEnd() const {
  if (pos_ != size_) {
    return Status::InvalidArgument(
        "wire: " + std::to_string(size_ - pos_) +
        " trailing bytes after payload");
  }
  return Status::OK();
}

uint32_t FrameChecksum(const char* data, size_t size) {
  // FNV-1a, 32-bit: cheap, order-sensitive, catches single-byte flips —
  // exactly the corruption class the chaos layer injects.
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 16777619u;
  }
  return h;
}

std::string EncodeFrame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutLE(&out, payload.size(), 4);
  out.push_back(static_cast<char>(type));
  PutLE(&out, FrameChecksum(payload), 4);
  out.append(payload);
  return out;
}

Status FrameDecoder::Feed(const char* data, size_t size) {
  if (poisoned_) {
    return Status::InvalidArgument("wire: decoder poisoned by earlier error");
  }
  buffer_.append(data, size);
  // Walk every header that is now fully buffered, frame to frame: an
  // oversized length prefix or unknown type must be rejected before any
  // payload is accepted, no matter how the bytes were fragmented or batched
  // across recv chunks (a pipelined burst can carry many headers at once).
  // Length and type live in the first 5 header bytes, so they are validated
  // as soon as those arrive — before the checksum word completes.
  while (scan_ + 5 <= buffer_.size()) {
    const char* header = buffer_.data() + scan_;
    uint32_t len = static_cast<uint32_t>(GetLE(header, 4));
    uint8_t type = static_cast<uint8_t>(header[4]);
    if (len > kMaxFramePayload) {
      poisoned_ = true;
      return Status::InvalidArgument(
          "wire: frame payload length " + std::to_string(len) +
          " exceeds the " + std::to_string(kMaxFramePayload) + "-byte cap");
    }
    if (!KnownFrameType(type)) {
      poisoned_ = true;
      return Status::InvalidArgument("wire: unknown frame type " +
                                     std::to_string(type));
    }
    if (scan_ + kFrameHeaderBytes > buffer_.size()) break;
    scan_ += kFrameHeaderBytes + static_cast<size_t>(len);
  }
  return Status::OK();
}

bool FrameDecoder::Next(Frame* frame) {
  if (poisoned_) return false;
  size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return false;
  const char* header = buffer_.data() + consumed_;
  uint32_t len = static_cast<uint32_t>(GetLE(header, 4));
  // Belt and braces: Feed validated this header when it was buffered, but a
  // frame must never pop unchecked.
  if (len > kMaxFramePayload ||
      !KnownFrameType(static_cast<uint8_t>(header[4]))) {
    poisoned_ = true;
    return false;
  }
  if (avail < kFrameHeaderBytes + static_cast<size_t>(len)) return false;
  const uint32_t declared = static_cast<uint32_t>(GetLE(header + 5, 4));
  const char* payload = buffer_.data() + consumed_ + kFrameHeaderBytes;
  if (FrameChecksum(payload, len) != declared) {
    // Corrupted payload: the stream can no longer be trusted (a flipped
    // byte in a *header* would already have failed above or desynced the
    // framing). Poison instead of popping garbage.
    poisoned_ = true;
    return false;
  }
  frame->type = static_cast<FrameType>(static_cast<uint8_t>(header[4]));
  frame->payload.assign(payload, len);
  consumed_ += kFrameHeaderBytes + len;
  // Compact once the consumed prefix dominates, so a long-lived keep-alive
  // connection does not grow its buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    scan_ -= consumed_;
    consumed_ = 0;
  }
  return true;
}

// --- Value / tuple codecs. --------------------------------------------------

void EncodeValue(const Value& value, WireWriter* w) {
  w->U8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->Bool(value.AsBool());
      break;
    case ValueType::kInt:
      w->I64(value.AsInt());
      break;
    case ValueType::kDouble:
      w->F64(value.AsDouble());
      break;
    case ValueType::kString:
      w->Str(value.AsString());
      break;
  }
}

Result<Value> DecodeValue(WireReader* r) {
  SECO_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value();
    case ValueType::kBool: {
      SECO_ASSIGN_OR_RETURN(bool v, r->Bool());
      return Value(v);
    }
    case ValueType::kInt: {
      SECO_ASSIGN_OR_RETURN(int64_t v, r->I64());
      return Value(v);
    }
    case ValueType::kDouble: {
      SECO_ASSIGN_OR_RETURN(double v, r->F64());
      return Value(v);
    }
    case ValueType::kString: {
      SECO_ASSIGN_OR_RETURN(std::string v, r->Str());
      return Value(std::move(v));
    }
  }
  return Status::InvalidArgument("wire: unknown value type tag " +
                                 std::to_string(tag));
}

void EncodeTuple(const Tuple& tuple, WireWriter* w) {
  w->U32(static_cast<uint32_t>(tuple.num_slots()));
  for (int i = 0; i < tuple.num_slots(); ++i) {
    if (tuple.IsAtomic(i)) {
      w->U8(0);
      EncodeValue(tuple.AtomicAt(i), w);
    } else {
      w->U8(1);
      const RepeatingGroupValue& group = tuple.GroupAt(i);
      w->U32(static_cast<uint32_t>(group.size()));
      for (const GroupInstance& instance : group) {
        w->U32(static_cast<uint32_t>(instance.size()));
        for (const Value& v : instance) EncodeValue(v, w);
      }
    }
  }
}

Result<Tuple> DecodeTuple(WireReader* r) {
  SECO_ASSIGN_OR_RETURN(uint32_t num_slots, r->U32());
  std::vector<TupleSlot> slots;
  slots.reserve(std::min<uint32_t>(num_slots, 1024));
  for (uint32_t i = 0; i < num_slots; ++i) {
    SECO_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
    if (kind == 0) {
      SECO_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
      slots.emplace_back(std::move(v));
    } else if (kind == 1) {
      SECO_ASSIGN_OR_RETURN(uint32_t num_instances, r->U32());
      RepeatingGroupValue group;
      group.reserve(std::min<uint32_t>(num_instances, 1024));
      for (uint32_t g = 0; g < num_instances; ++g) {
        SECO_ASSIGN_OR_RETURN(uint32_t num_values, r->U32());
        GroupInstance instance;
        instance.reserve(std::min<uint32_t>(num_values, 1024));
        for (uint32_t v = 0; v < num_values; ++v) {
          SECO_ASSIGN_OR_RETURN(Value value, DecodeValue(r));
          instance.push_back(std::move(value));
        }
        group.push_back(std::move(instance));
      }
      slots.emplace_back(std::move(group));
    } else {
      return Status::InvalidArgument("wire: unknown tuple slot kind " +
                                     std::to_string(kind));
    }
  }
  return Tuple(std::move(slots));
}

void EncodeStatus(const Status& status, WireWriter* w) {
  w->U8(static_cast<uint8_t>(status.code()));
  w->Str(status.ok() ? std::string() : status.message());
}

Status DecodeStatus(WireReader* r, Status* out) {
  SECO_ASSIGN_OR_RETURN(uint8_t code, r->U8());
  SECO_ASSIGN_OR_RETURN(std::string message, r->Str());
  if (code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return Status::InvalidArgument("wire: unknown status code " +
                                   std::to_string(code));
  }
  *out = Status::FromCode(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

Status ErrorFrameStatus(const std::string& payload, Status fallback) {
  WireReader r(payload);
  Status remote = Status::OK();
  if (DecodeStatus(&r, &remote).ok() && !remote.ok()) return remote;
  return fallback;
}

void EncodeServiceRequest(const ServiceRequest& request, WireWriter* w) {
  w->U32(static_cast<uint32_t>(request.inputs.size()));
  for (const Value& v : request.inputs) EncodeValue(v, w);
  w->U32(static_cast<uint32_t>(request.chunk_index));
  w->U32(static_cast<uint32_t>(request.attempt));
  w->F64(request.deadline_ms);
}

Result<ServiceRequest> DecodeServiceRequest(WireReader* r) {
  ServiceRequest request;
  SECO_ASSIGN_OR_RETURN(uint32_t num_inputs, r->U32());
  request.inputs.reserve(std::min<uint32_t>(num_inputs, 1024));
  for (uint32_t i = 0; i < num_inputs; ++i) {
    SECO_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    request.inputs.push_back(std::move(v));
  }
  SECO_ASSIGN_OR_RETURN(uint32_t chunk_index, r->U32());
  SECO_ASSIGN_OR_RETURN(uint32_t attempt, r->U32());
  SECO_ASSIGN_OR_RETURN(request.deadline_ms, r->F64());
  request.chunk_index = static_cast<int>(chunk_index);
  request.attempt = static_cast<int>(attempt);
  return request;
}

void EncodeServiceResponse(const ServiceResponse& response, WireWriter* w) {
  w->U32(static_cast<uint32_t>(response.tuples.size()));
  for (const Tuple& t : response.tuples) EncodeTuple(t, w);
  w->U32(static_cast<uint32_t>(response.scores.size()));
  for (double s : response.scores) w->F64(s);
  w->Bool(response.exhausted);
  w->F64(response.latency_ms);
  w->F64(response.fault_overhead_ms);
}

Result<ServiceResponse> DecodeServiceResponse(WireReader* r) {
  ServiceResponse response;
  SECO_ASSIGN_OR_RETURN(uint32_t num_tuples, r->U32());
  response.tuples.reserve(std::min<uint32_t>(num_tuples, 4096));
  for (uint32_t i = 0; i < num_tuples; ++i) {
    SECO_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(r));
    response.tuples.push_back(std::move(t));
  }
  SECO_ASSIGN_OR_RETURN(uint32_t num_scores, r->U32());
  response.scores.reserve(std::min<uint32_t>(num_scores, 4096));
  for (uint32_t i = 0; i < num_scores; ++i) {
    SECO_ASSIGN_OR_RETURN(double s, r->F64());
    response.scores.push_back(s);
  }
  SECO_ASSIGN_OR_RETURN(response.exhausted, r->Bool());
  SECO_ASSIGN_OR_RETURN(response.latency_ms, r->F64());
  SECO_ASSIGN_OR_RETURN(response.fault_overhead_ms, r->F64());
  return response;
}

// --- Query protocol payloads. -----------------------------------------------

std::string EncodeQueryRequest(const QueryRequest& request) {
  WireWriter w;
  w.Str(request.query_text);
  w.U8(static_cast<uint8_t>(request.priority));
  w.F64(request.deadline_ms);
  w.I32(request.k);
  w.I32(request.max_calls);
  w.Bool(request.streaming);
  w.U32(static_cast<uint32_t>(request.input_bindings.size()));
  for (const auto& [name, value] : request.input_bindings) {
    w.Str(name);
    EncodeValue(value, &w);
  }
  return w.Take();
}

Result<QueryRequest> DecodeQueryRequest(const std::string& payload) {
  WireReader r(payload);
  QueryRequest request;
  SECO_ASSIGN_OR_RETURN(request.query_text, r.Str());
  SECO_ASSIGN_OR_RETURN(uint8_t priority, r.U8());
  if (priority >= kNumPriorityClasses) {
    return Status::InvalidArgument("wire: priority class " +
                                   std::to_string(priority) + " out of range");
  }
  request.priority = static_cast<PriorityClass>(priority);
  SECO_ASSIGN_OR_RETURN(request.deadline_ms, r.F64());
  SECO_ASSIGN_OR_RETURN(request.k, r.I32());
  SECO_ASSIGN_OR_RETURN(request.max_calls, r.I32());
  SECO_ASSIGN_OR_RETURN(request.streaming, r.Bool());
  SECO_ASSIGN_OR_RETURN(uint32_t num_bindings, r.U32());
  for (uint32_t i = 0; i < num_bindings; ++i) {
    SECO_ASSIGN_OR_RETURN(std::string name, r.Str());
    SECO_ASSIGN_OR_RETURN(Value value, DecodeValue(&r));
    request.input_bindings.emplace(std::move(name), std::move(value));
  }
  SECO_RETURN_IF_ERROR(r.ExpectEnd());
  return request;
}

// --- Answer body. -----------------------------------------------------------

namespace {

/// v2: a lost service carries only its interface name (see
/// `EncodeReliability`).
constexpr uint8_t kAnswerBodyVersion = 2;

void EncodeCombination(const Combination& combo, WireWriter* w) {
  w->U32(static_cast<uint32_t>(combo.components.size()));
  for (const Tuple& t : combo.components) EncodeTuple(t, w);
  w->U32(static_cast<uint32_t>(combo.component_scores.size()));
  for (double s : combo.component_scores) w->F64(s);
  w->F64(combo.combined_score);
  w->U32(static_cast<uint32_t>(combo.missing_atoms.size()));
  for (int a : combo.missing_atoms) w->I32(a);
}

Result<Combination> DecodeCombination(WireReader* r) {
  Combination combo;
  SECO_ASSIGN_OR_RETURN(uint32_t num_components, r->U32());
  for (uint32_t i = 0; i < num_components; ++i) {
    SECO_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(r));
    combo.components.push_back(std::move(t));
  }
  SECO_ASSIGN_OR_RETURN(uint32_t num_scores, r->U32());
  for (uint32_t i = 0; i < num_scores; ++i) {
    SECO_ASSIGN_OR_RETURN(double s, r->F64());
    combo.component_scores.push_back(s);
  }
  SECO_ASSIGN_OR_RETURN(combo.combined_score, r->F64());
  SECO_ASSIGN_OR_RETURN(uint32_t num_missing, r->U32());
  for (uint32_t i = 0; i < num_missing; ++i) {
    SECO_ASSIGN_OR_RETURN(int32_t a, r->I32());
    combo.missing_atoms.push_back(a);
  }
  return combo;
}

void EncodeNodeStats(const std::map<int, NodeRuntimeStats>& stats,
                     WireWriter* w) {
  w->U32(static_cast<uint32_t>(stats.size()));
  for (const auto& [node, s] : stats) {
    w->I32(node);
    w->I32(s.calls);
    w->F64(s.latency_ms);
    w->I32(s.tuples_out);
    w->F64(s.finished_at_ms);
    w->I32(s.cache_hits);
  }
}

Status DecodeNodeStats(WireReader* r, std::map<int, NodeRuntimeStats>* stats) {
  SECO_ASSIGN_OR_RETURN(uint32_t count, r->U32());
  for (uint32_t i = 0; i < count; ++i) {
    SECO_ASSIGN_OR_RETURN(int32_t node, r->I32());
    NodeRuntimeStats s;
    SECO_ASSIGN_OR_RETURN(s.calls, r->I32());
    SECO_ASSIGN_OR_RETURN(s.latency_ms, r->F64());
    SECO_ASSIGN_OR_RETURN(s.tuples_out, r->I32());
    SECO_ASSIGN_OR_RETURN(s.finished_at_ms, r->F64());
    SECO_ASSIGN_OR_RETURN(s.cache_hits, r->I32());
    (*stats)[node] = s;
  }
  return Status::OK();
}

void EncodeReliability(const ReliabilityStats& stats, WireWriter* w) {
  w->I64(stats.attempts);
  w->I64(stats.retries);
  w->I64(stats.transient_failures);
  w->I64(stats.deadline_hits);
  w->I64(stats.hedges_launched);
  w->I64(stats.hedges_won);
  w->I64(stats.breaker_short_circuits);
  w->I64(stats.permanent_failures);
  w->F64(stats.backoff_ms);
  w->F64(stats.overhead_ms);
  w->U32(static_cast<uint32_t>(stats.breakers.size()));
  for (const CircuitBreakerState& b : stats.breakers) {
    w->Str(b.interface_name);
    w->U8(static_cast<uint8_t>(b.phase));
    w->I32(b.trips);
    w->I32(b.consecutive_failures);
    w->I64(b.short_circuits);
  }
  // Only the set of lost interfaces is deterministic: which request lost
  // the race between speculation and the demand path (and so `ordinal`,
  // `reason` and `breaker_open`) depends on the schedule.
  w->U32(static_cast<uint32_t>(stats.services_lost.size()));
  for (const ServiceLostEvent& e : stats.services_lost) {
    w->Str(e.interface_name);
  }
}

Status DecodeReliability(WireReader* r, ReliabilityStats* stats) {
  SECO_ASSIGN_OR_RETURN(stats->attempts, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->retries, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->transient_failures, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->deadline_hits, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->hedges_launched, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->hedges_won, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->breaker_short_circuits, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->permanent_failures, r->I64());
  SECO_ASSIGN_OR_RETURN(stats->backoff_ms, r->F64());
  SECO_ASSIGN_OR_RETURN(stats->overhead_ms, r->F64());
  SECO_ASSIGN_OR_RETURN(uint32_t num_breakers, r->U32());
  for (uint32_t i = 0; i < num_breakers; ++i) {
    CircuitBreakerState b;
    SECO_ASSIGN_OR_RETURN(b.interface_name, r->Str());
    SECO_ASSIGN_OR_RETURN(uint8_t phase, r->U8());
    if (phase > static_cast<uint8_t>(BreakerPhase::kHalfOpen)) {
      return Status::InvalidArgument("wire: breaker phase out of range");
    }
    b.phase = static_cast<BreakerPhase>(phase);
    SECO_ASSIGN_OR_RETURN(b.trips, r->I32());
    SECO_ASSIGN_OR_RETURN(b.consecutive_failures, r->I32());
    SECO_ASSIGN_OR_RETURN(b.short_circuits, r->I64());
    stats->breakers.push_back(std::move(b));
  }
  SECO_ASSIGN_OR_RETURN(uint32_t num_lost, r->U32());
  for (uint32_t i = 0; i < num_lost; ++i) {
    ServiceLostEvent e;
    SECO_ASSIGN_OR_RETURN(e.interface_name, r->Str());
    stats->services_lost.push_back(std::move(e));
  }
  return Status::OK();
}

void EncodeDegraded(const std::vector<DegradedStatus>& degraded,
                    WireWriter* w) {
  w->U32(static_cast<uint32_t>(degraded.size()));
  for (const DegradedStatus& d : degraded) {
    w->I32(d.node);
    w->Str(d.service);
    w->I32(d.failed_bindings);
    w->Str(d.reason);
    w->Bool(d.cascaded);
    w->Bool(d.query_deadline);
  }
}

Status DecodeDegraded(WireReader* r, std::vector<DegradedStatus>* degraded) {
  SECO_ASSIGN_OR_RETURN(uint32_t count, r->U32());
  for (uint32_t i = 0; i < count; ++i) {
    DegradedStatus d;
    SECO_ASSIGN_OR_RETURN(d.node, r->I32());
    SECO_ASSIGN_OR_RETURN(d.service, r->Str());
    SECO_ASSIGN_OR_RETURN(d.failed_bindings, r->I32());
    SECO_ASSIGN_OR_RETURN(d.reason, r->Str());
    SECO_ASSIGN_OR_RETURN(d.cascaded, r->Bool());
    SECO_ASSIGN_OR_RETURN(d.query_deadline, r->Bool());
    degraded->push_back(std::move(d));
  }
  return Status::OK();
}

/// Repair telemetry, minus `replan_ms` (wall-clock: replanning is real
/// optimizer time, different on every run).
void EncodeRepair(const RepairStats& repair, WireWriter* w) {
  w->I32(repair.events);
  w->I32(repair.replans);
  w->I64(repair.salvaged_calls);
  w->F64(repair.abandoned_ms);
  w->U32(static_cast<uint32_t>(repair.log.size()));
  for (const RepairEvent& e : repair.log) {
    w->Str(e.lost);
    w->Str(e.replacement);
    w->Str(e.reason);
  }
}

Status DecodeRepair(WireReader* r, RepairStats* repair) {
  SECO_ASSIGN_OR_RETURN(repair->events, r->I32());
  SECO_ASSIGN_OR_RETURN(repair->replans, r->I32());
  SECO_ASSIGN_OR_RETURN(repair->salvaged_calls, r->I64());
  SECO_ASSIGN_OR_RETURN(repair->abandoned_ms, r->F64());
  SECO_ASSIGN_OR_RETURN(uint32_t count, r->U32());
  for (uint32_t i = 0; i < count; ++i) {
    RepairEvent e;
    SECO_ASSIGN_OR_RETURN(e.lost, r->Str());
    SECO_ASSIGN_OR_RETURN(e.replacement, r->Str());
    SECO_ASSIGN_OR_RETURN(e.reason, r->Str());
    repair->log.push_back(std::move(e));
  }
  return Status::OK();
}

void EncodeOpenBreakers(const std::vector<std::string>& names, WireWriter* w) {
  w->U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) w->Str(name);
}

Status DecodeOpenBreakers(WireReader* r, std::vector<std::string>* names) {
  SECO_ASSIGN_OR_RETURN(uint32_t count, r->U32());
  for (uint32_t i = 0; i < count; ++i) {
    SECO_ASSIGN_OR_RETURN(std::string name, r->Str());
    names->push_back(std::move(name));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeAnswerBody(const QueryResponse& response) {
  WireWriter w;
  w.U8(kAnswerBodyVersion);
  w.U8(static_cast<uint8_t>(response.outcome));
  w.U8(static_cast<uint8_t>(response.degradation_level));
  EncodeStatus(response.status, &w);
  w.F64(response.retry_after_ms);
  w.U8(static_cast<uint8_t>(response.priority));
  w.Bool(response.answer_cache_hit);
  w.Bool(response.streamed);

  const bool has_result = response.outcome == ServedOutcome::kCompleted ||
                          response.outcome == ServedOutcome::kDegraded;
  w.Bool(has_result);
  if (!has_result) return w.Take();

  // The body layout is versioned (kAnswerBodyVersion): each engine's own
  // fields sit between the common ones at fixed positions.
  const RunResult& run = response.run();
  w.U32(static_cast<uint32_t>(run.combinations.size()));
  for (const Combination& c : run.combinations) EncodeCombination(c, &w);
  w.I32(run.total_calls);
  if (response.streamed) {
    w.F64(response.streaming.total_latency_ms);
    w.Bool(response.streaming.exhausted);
  } else {
    w.F64(response.execution.elapsed_ms);
    w.F64(response.execution.total_latency_ms);
    w.I32(response.execution.total_combinations_produced);
  }
  w.I32(run.cache_hits);
  w.I32(run.cache_misses);
  if (response.streamed) {
    w.I32(response.streaming.speculative_calls);
    w.I32(response.streaming.speculative_wasted);
  }
  w.Bool(run.complete);
  EncodeNodeStats(run.node_stats, &w);
  EncodeDegraded(run.degraded, &w);
  EncodeOpenBreakers(run.open_breakers, &w);
  EncodeReliability(run.reliability, &w);
  EncodeRepair(run.repair, &w);
  return w.Take();
}

Result<QueryResponse> DecodeAnswerBody(const std::string& payload) {
  WireReader r(payload);
  SECO_ASSIGN_OR_RETURN(uint8_t version, r.U8());
  if (version != kAnswerBodyVersion) {
    return Status::Unsupported("wire: answer body version " +
                               std::to_string(version));
  }
  QueryResponse response;
  SECO_ASSIGN_OR_RETURN(uint8_t outcome, r.U8());
  if (outcome > static_cast<uint8_t>(ServedOutcome::kCancelled)) {
    return Status::InvalidArgument("wire: outcome out of range");
  }
  response.outcome = static_cast<ServedOutcome>(outcome);
  SECO_ASSIGN_OR_RETURN(uint8_t level, r.U8());
  response.degradation_level = level;
  SECO_RETURN_IF_ERROR(DecodeStatus(&r, &response.status));
  SECO_ASSIGN_OR_RETURN(response.retry_after_ms, r.F64());
  SECO_ASSIGN_OR_RETURN(uint8_t priority, r.U8());
  if (priority >= kNumPriorityClasses) {
    return Status::InvalidArgument("wire: priority class out of range");
  }
  response.priority = static_cast<PriorityClass>(priority);
  SECO_ASSIGN_OR_RETURN(response.answer_cache_hit, r.Bool());
  SECO_ASSIGN_OR_RETURN(response.streamed, r.Bool());

  SECO_ASSIGN_OR_RETURN(bool has_result, r.Bool());
  if (!has_result) {
    SECO_RETURN_IF_ERROR(r.ExpectEnd());
    return response;
  }

  RunResult& run = response.run();
  SECO_ASSIGN_OR_RETURN(uint32_t num_combinations, r.U32());
  for (uint32_t i = 0; i < num_combinations; ++i) {
    SECO_ASSIGN_OR_RETURN(Combination c, DecodeCombination(&r));
    run.combinations.push_back(std::move(c));
  }
  SECO_ASSIGN_OR_RETURN(run.total_calls, r.I32());
  if (response.streamed) {
    SECO_ASSIGN_OR_RETURN(response.streaming.total_latency_ms, r.F64());
    SECO_ASSIGN_OR_RETURN(response.streaming.exhausted, r.Bool());
  } else {
    ExecutionResult& e = response.execution;
    SECO_ASSIGN_OR_RETURN(e.elapsed_ms, r.F64());
    SECO_ASSIGN_OR_RETURN(e.total_latency_ms, r.F64());
    SECO_ASSIGN_OR_RETURN(e.total_combinations_produced, r.I32());
  }
  SECO_ASSIGN_OR_RETURN(run.cache_hits, r.I32());
  SECO_ASSIGN_OR_RETURN(run.cache_misses, r.I32());
  if (response.streamed) {
    SECO_ASSIGN_OR_RETURN(response.streaming.speculative_calls, r.I32());
    SECO_ASSIGN_OR_RETURN(response.streaming.speculative_wasted, r.I32());
  }
  SECO_ASSIGN_OR_RETURN(run.complete, r.Bool());
  SECO_RETURN_IF_ERROR(DecodeNodeStats(&r, &run.node_stats));
  SECO_RETURN_IF_ERROR(DecodeDegraded(&r, &run.degraded));
  SECO_RETURN_IF_ERROR(DecodeOpenBreakers(&r, &run.open_breakers));
  SECO_RETURN_IF_ERROR(DecodeReliability(&r, &run.reliability));
  SECO_RETURN_IF_ERROR(DecodeRepair(&r, &run.repair));
  run.degradation_level = response.degradation_level;
  SECO_RETURN_IF_ERROR(r.ExpectEnd());
  return response;
}

std::string AnswerBodyHex(const std::string& body) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(body.size() * 2);
  for (unsigned char c : body) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

}  // namespace seco
