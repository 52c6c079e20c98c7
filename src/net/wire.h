#ifndef SECO_NET_WIRE_H_
#define SECO_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/server.h"
#include "service/invocation.h"
#include "service/tuple.h"
#include "service/value.h"

namespace seco {

/// The SeCo wire protocol (docs/NETWORK.md): length-prefixed frames over a
/// byte stream. Every frame is
///
///     [u32 payload length, LE][u8 frame type][u32 payload checksum, LE]
///     [payload bytes]
///
/// The same framing carries both protocols: the *query* protocol between a
/// `NetClient` and a `NetServer` front end, and the *backend* protocol
/// between a `RemoteServiceHandler` and a `BackendServer`. All multi-byte
/// integers are little-endian; doubles travel as their IEEE-754 bit pattern
/// (a u64), so every numeric value round-trips bit-exactly — the foundation
/// of the "wire answers are byte-identical to in-process runs" oracle.
///
/// The checksum (FNV-1a over the payload, v2) closes the silent-corruption
/// hole: a flipped byte anywhere in a payload poisons the decoder instead
/// of decoding into a plausible-but-wrong value, so corruption degrades
/// through the structured `kUnavailable` path like any other stream fault.

/// Protocol constants. The version is negotiated by the Hello/HelloAck
/// exchange that opens every connection.
inline constexpr uint32_t kWireMagic = 0x4F434553;  // "SECO" little-endian
inline constexpr uint16_t kWireVersion = 3;  // v3: CANCEL frame + cancelled status

/// Bytes in one frame header: length + type + checksum.
inline constexpr size_t kFrameHeaderBytes = 9;

/// FNV-1a (32-bit) over a byte span — the frame payload checksum.
uint32_t FrameChecksum(const char* data, size_t size);
inline uint32_t FrameChecksum(const std::string& bytes) {
  return FrameChecksum(bytes.data(), bytes.size());
}

/// Hard ceiling on one frame's payload. A length prefix beyond this is
/// rejected *before* any buffer is sized to it, so a hostile or corrupt
/// 4-byte prefix can never drive an allocation.
inline constexpr uint32_t kMaxFramePayload = 4u << 20;  // 4 MiB

/// Answer bodies larger than this are split across consecutive
/// `kResultBody` frames (chunked transfer; see `NetServer`).
inline constexpr uint32_t kBodyChunkBytes = 256u << 10;  // 256 KiB

/// Frame types. Values are wire-stable.
enum class FrameType : uint8_t {
  // Connection management (both protocols).
  kHello = 1,     ///< client -> server: magic + version + role
  kHelloAck = 2,  ///< server -> client: version
  kError = 7,     ///< protocol error: Status; sender closes afterwards
  kGoodbye = 8,   ///< clean close announcement (no payload)
  kPing = 11,     ///< u64 cookie, echoed back in a kPong
  kPong = 12,

  // Query protocol (NetClient <-> NetServer).
  kQuery = 3,         ///< u64 request id + encoded QueryRequest
  kResultHeader = 4,  ///< u64 id + wire status + retry-after + body length
  kResultBody = 5,    ///< u64 id + the next chunk of the answer body
  kResultEnd = 6,     ///< u64 id: the response is complete

  // Backend protocol (RemoteServiceHandler <-> BackendServer).
  kCall = 9,        ///< u64 call id + interface + encoded ServiceRequest
  kCallReply = 10,  ///< u64 call id + ok flag + (ServiceResponse | Status)

  // Cancellation (both protocols, v3). In the query protocol the id is the
  // client's request id; in the backend protocol it is the call id. Fire and
  // forget: the peer answers with the normal result/reply frame (status
  // `kCancelled` if the cancel won the race, the natural outcome if it
  // lost), never with a dedicated ack.
  kCancel = 13,  ///< u64 id: abandon the identified query/call
};

/// Roles announced in the Hello frame, so a client that dials the wrong
/// port fails with a clear error instead of confusing the two protocols.
enum class WireRole : uint8_t {
  kQueryClient = 0,
  kBackendClient = 1,
};

/// Wire-level status of one query response, carried in the result header so
/// thin clients can react (e.g. back off on `kShed`) without decoding the
/// body. Mirrors `ServedOutcome` one-to-one.
enum class WireStatus : uint8_t {
  kOk = 0,           ///< completed at level 0
  kDegraded = 1,     ///< served under degradation or partial
  kShed = 2,         ///< admission rejected: retry after `retry_after_ms`
  kDeadline = 3,     ///< queue-time or execution deadline expired
  kFailed = 4,       ///< execution error; body's status has details
  kDraining = 5,     ///< server is shutting down: retry elsewhere/later
  kCancelled = 6,    ///< the client abandoned the query (v3)
};

WireStatus WireStatusOf(const QueryResponse& response);
/// Maps a wire status back onto the `ServedOutcome` it mirrors
/// (`kDraining` maps to `kShed`: both are admission-level rejections).
ServedOutcome OutcomeOfWireStatus(WireStatus status);
const char* WireStatusToString(WireStatus status);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Appends primitive values to a byte buffer in wire order.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s);
  void Bytes(const void* data, size_t len);

  const std::string& buffer() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reads over a byte span. Every accessor fails with
/// `kInvalidArgument` instead of reading past the end, so a truncated or
/// hostile payload can never over-read.
class WireReader {
 public:
  WireReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  Result<uint8_t> U8();
  Result<uint16_t> U16();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int32_t> I32();
  Result<int64_t> I64();
  Result<double> F64();
  Result<bool> Bool();
  /// Strings are limited to the remaining payload, so a corrupt length can
  /// never demand more than the frame actually carries.
  Result<std::string> Str();

  size_t remaining() const { return size_ - pos_; }
  /// Fails unless the payload was consumed exactly — trailing garbage in a
  /// frame is a protocol error, not padding.
  Status ExpectEnd() const;

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Encodes one complete frame (header + payload).
std::string EncodeFrame(FrameType type, const std::string& payload);

/// Incremental frame decoder: feed it arbitrary byte spans (as they arrive
/// from `recv`, in any fragmentation) and poll complete frames out. An
/// oversized length prefix fails immediately — before any payload byte is
/// buffered — and poisons the decoder, mirroring how a connection must be
/// dropped after a framing error. A payload whose checksum does not match
/// its header poisons the decoder at pop time (see `Next`).
class FrameDecoder {
 public:
  /// Appends raw bytes. Returns non-OK on a malformed header (oversized
  /// length or unknown frame type — both visible from the first 5 header
  /// bytes, before any payload is accepted); the decoder then rejects all
  /// further input.
  Status Feed(const char* data, size_t size);
  Status Feed(const std::string& bytes) {
    return Feed(bytes.data(), bytes.size());
  }

  /// Pops the next complete frame into `*frame`; false when no complete
  /// frame is buffered yet. A checksum mismatch poisons the decoder and
  /// returns false — callers must check `poisoned()` to tell corruption
  /// from not-yet-complete (RecvFrame does).
  bool Next(Frame* frame);

  bool poisoned() const { return poisoned_; }
  /// Bytes buffered but not yet consumed as complete frames.
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
  /// Offset of the next frame header that has not been validated yet.
  /// Always >= consumed_: headers are validated the moment they are fully
  /// buffered, before their payload is complete enough for Next to pop.
  size_t scan_ = 0;
  bool poisoned_ = false;
};

// --- Value / tuple / service-call codecs (shared by both protocols). -------

void EncodeValue(const Value& value, WireWriter* w);
Result<Value> DecodeValue(WireReader* r);

void EncodeTuple(const Tuple& tuple, WireWriter* w);
Result<Tuple> DecodeTuple(WireReader* r);

void EncodeStatus(const Status& status, WireWriter* w);
/// Decodes into `*out`; the returned Status reports decode problems
/// (truncation, unknown code), not the decoded value.
Status DecodeStatus(WireReader* r, Status* out);
/// The error a peer sent as a `kError` frame payload, or `fallback` when the
/// payload does not decode to one.
Status ErrorFrameStatus(const std::string& payload, Status fallback);

void EncodeServiceRequest(const ServiceRequest& request, WireWriter* w);
Result<ServiceRequest> DecodeServiceRequest(WireReader* r);

void EncodeServiceResponse(const ServiceResponse& response, WireWriter* w);
Result<ServiceResponse> DecodeServiceResponse(WireReader* r);

// --- Query protocol payloads. ----------------------------------------------

/// Encodes the wire-transportable part of a `QueryRequest`: query text,
/// priority, queue deadline, k, call budget, input bindings, and the
/// streaming flag. Per-request reliability/repair overrides and trace
/// collection are not transported (v1): the serving defaults apply, exactly
/// as for an in-process submission that leaves them inert.
std::string EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(const std::string& payload);

/// Serializes the deterministic content of a `QueryResponse` — outcome,
/// status, degradation level, answers, and the simulated-clock telemetry —
/// into the canonical *answer body*. Wall-clock measurements
/// (`wall_clock_ms`, `queue_wait_ms`, `repair.replan_ms`), traces, the
/// columnar diagnostics, and the schedule-dependent loss diagnostics
/// (`services_lost[].ordinal/reason/breaker_open`) are excluded: they vary
/// run to run, everything encoded here is bit-reproducible. The equivalence
/// oracle compares these bodies byte for byte between wire-mode and
/// in-process runs.
std::string EncodeAnswerBody(const QueryResponse& response);
Result<QueryResponse> DecodeAnswerBody(const std::string& payload);

/// Hex rendering of an answer body, one line per response — the diffable
/// form `seco_shell --dump-answers` writes for the CI equivalence check.
std::string AnswerBodyHex(const std::string& body);

}  // namespace seco

#endif  // SECO_NET_WIRE_H_
