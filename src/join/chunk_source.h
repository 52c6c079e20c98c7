#ifndef SECO_JOIN_CHUNK_SOURCE_H_
#define SECO_JOIN_CHUNK_SOURCE_H_

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "data/column_chunk.h"
#include "exec/call_cache.h"
#include "service/service_interface.h"

namespace seco {

/// One fetched chunk: tuples in ranking order with their scores (scores are
/// empty for unranked services).
struct Chunk {
  std::vector<Tuple> tuples;
  std::vector<double> scores;

  /// The representative score of the chunk: its first tuple's score, or 1.0
  /// when unranked / 0.0 when empty.
  double RepresentativeScore() const {
    if (tuples.empty()) return 0.0;
    return scores.empty() ? 1.0 : scores.front();
  }
};

/// Pulls successive chunks from a service interface under one fixed input
/// binding, tracking calls and simulated latency. The unit of interaction
/// of all join methods (§4.1: services produce a new chunk per call).
class ChunkSource {
 public:
  /// `cache`, when given (not owned), serves repeat fetches of the same
  /// (service, binding, chunk) without touching the service: a warm entry
  /// yields the chunk with no call counted and no latency charged. The
  /// default keeps the historical always-call behavior.
  ChunkSource(std::shared_ptr<ServiceInterface> iface, std::vector<Value> inputs,
              ServiceCallCache* cache = nullptr)
      : iface_(std::move(iface)), inputs_(std::move(inputs)), cache_(cache) {}

  /// Fetches the next chunk. Returns false when the service was already
  /// exhausted (no call is made in that case).
  Result<bool> FetchNext();

  /// Overrides the handler calls go through — typically a
  /// `ResilientHandler` wrapping `iface->handler()` so the join methods
  /// inherit retry/deadline/breaker behavior. Must outlive this source.
  /// nullptr restores the default.
  void set_handler(std::shared_ptr<ServiceCallHandler> handler) {
    handler_override_ = std::move(handler);
  }

  int num_chunks() const { return static_cast<int>(chunks_.size()); }
  const Chunk& chunk(int i) const { return chunks_[i]; }
  bool exhausted() const { return exhausted_; }

  /// Opts this source into the columnar data plane: every chunk admitted
  /// from now on (and any already fetched) is decoded once into flat
  /// columns, with the join key at `key_path` canonicalized for the SIMD
  /// kernels. String keys intern into `dict` (not owned; may be null),
  /// which the two sides of a join must share for codes to be comparable.
  /// Decoding happens inside `FetchNext`.
  void EnableColumnar(const AttrPath& key_path, KeyDictionary* dict);

  /// The decoded columns of chunk `i`, or nullptr when columnar decoding is
  /// not enabled. Valid as long as the chunk itself.
  const ColumnChunk* columns(int i) const {
    if (!columnar_path_.has_value()) return nullptr;
    return &columns_[i];
  }

  /// Chunks decoded into columns / whose key column fell back to the
  /// scalar path (nulls, repeating groups, mixed types, dict overflow).
  int chunks_decoded() const { return chunks_decoded_; }
  int decode_fallbacks() const { return decode_fallbacks_; }

  int calls() const { return calls_; }
  /// Chunks served from the call cache instead of a service call.
  int cache_hits() const { return cache_hits_; }
  double total_latency_ms() const { return total_latency_ms_; }

  const ServiceInterface& iface() const { return *iface_; }

  /// True if this source synthesized scores from positions because the
  /// (ranked) service returned none — the opaque-ranking handling of the
  /// chapter's §3.1 footnote: "associating the position of tuples in the
  /// result with a new attribute and then translating the position into a
  /// score in the [0..1] interval".
  bool scores_synthesized() const { return scores_synthesized_; }

 private:
  /// Appends a fetched response as a chunk, with its accounting.
  bool IngestResponse(ServiceResponse resp, bool from_cache);

  /// Decodes one admitted chunk into `columns_` (columnar mode only).
  void DecodeChunkColumns(const Chunk& chunk);

  /// The handler fetches go through: the override when set, the
  /// interface's own otherwise.
  ServiceCallHandler* effective_handler() const {
    return handler_override_ ? handler_override_.get() : iface_->handler();
  }

  std::shared_ptr<ServiceInterface> iface_;
  std::vector<Value> inputs_;
  std::shared_ptr<ServiceCallHandler> handler_override_;
  ServiceCallCache* cache_ = nullptr;  // not owned; may be null
  // Deque: growing must not invalidate references to earlier chunks (the
  // top-k executor keeps pointers into fetched tuples).
  std::deque<Chunk> chunks_;
  /// Decoded columns, parallel to `chunks_` when columnar mode is enabled
  /// (deque for the same reference-stability reason).
  std::deque<ColumnChunk> columns_;
  std::optional<AttrPath> columnar_path_;
  KeyDictionary* dict_ = nullptr;  // not owned; may be null
  int chunks_decoded_ = 0;
  int decode_fallbacks_ = 0;
  bool exhausted_ = false;
  int calls_ = 0;
  int cache_hits_ = 0;
  double total_latency_ms_ = 0.0;
  int tuples_seen_ = 0;
  /// Chunk index of the next request to issue.
  int next_chunk_ = 0;
  bool scores_synthesized_ = false;
};

}  // namespace seco

#endif  // SECO_JOIN_CHUNK_SOURCE_H_
