#include "join/chunk_source.h"

namespace seco {

bool ChunkSource::IngestResponse(ServiceResponse resp, bool from_cache) {
  if (from_cache) {
    ++cache_hits_;
  } else {
    ++calls_;
    total_latency_ms_ += resp.latency_ms;
  }
  Chunk chunk;
  chunk.tuples = std::move(resp.tuples);
  chunk.scores = std::move(resp.scores);
  if (chunk.tuples.empty()) {
    exhausted_ = true;
    return false;
  }
  if (chunk.scores.empty() && iface_->is_ranked()) {
    // Opaque ranking: the service returns results in relevance order but no
    // scores. Translate positions into a monotone [0..1] score (§3.1 fn. 3).
    chunk.scores.reserve(chunk.tuples.size());
    for (size_t i = 0; i < chunk.tuples.size(); ++i) {
      chunk.scores.push_back(1.0 / (1.0 + tuples_seen_ + static_cast<int>(i)));
    }
    scores_synthesized_ = true;
  }
  tuples_seen_ += static_cast<int>(chunk.tuples.size());
  chunks_.push_back(std::move(chunk));
  if (columnar_path_.has_value()) DecodeChunkColumns(chunks_.back());
  if (resp.exhausted) exhausted_ = true;
  return true;
}

void ChunkSource::EnableColumnar(const AttrPath& key_path,
                                 KeyDictionary* dict) {
  columnar_path_ = key_path;
  dict_ = dict;
  // Backfill chunks fetched before opting in, keeping the deques parallel.
  while (columns_.size() < chunks_.size()) {
    DecodeChunkColumns(chunks_[columns_.size()]);
  }
}

void ChunkSource::DecodeChunkColumns(const Chunk& chunk) {
  columns_.push_back(
      ColumnChunk::Decode(chunk.tuples, chunk.scores, *columnar_path_, dict_));
  ++chunks_decoded_;
  if (columns_.back().key_fallback()) ++decode_fallbacks_;
}

Result<bool> ChunkSource::FetchNext() {
  if (exhausted_) return false;
  ServiceRequest request;
  request.inputs = inputs_;
  request.chunk_index = next_chunk_++;
  ServiceResponse resp;
  bool from_cache = false;
  if (cache_ != nullptr) {
    std::string cache_key = ServiceCallCache::Key(
        iface_->name(), SerializeBinding(inputs_), request.chunk_index);
    std::optional<ServiceResponse> cached = cache_->Get(cache_key);
    if (cached.has_value()) {
      resp = std::move(*cached);
      from_cache = true;
    }
  }
  if (!from_cache) {
    SECO_ASSIGN_OR_RETURN(resp, effective_handler()->Call(request));
    if (cache_ != nullptr) {
      // Cache the clean response: reliability overhead belongs to this
      // attempt chain and must not replay on later hits.
      ServiceResponse clean = resp;
      clean.fault_overhead_ms = 0.0;
      cache_->Put(ServiceCallCache::Key(iface_->name(),
                                        SerializeBinding(inputs_),
                                        request.chunk_index),
                  clean);
    }
  }
  return IngestResponse(std::move(resp), from_cache);
}

}  // namespace seco
