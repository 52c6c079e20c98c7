#include "join/parallel_join.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>

namespace seco {

namespace {

/// Orders tiles by descending representative score, breaking ties by
/// ascending index sum then x (deterministic diagonal order). Scores are
/// batch-evaluated once per tile instead of O(n log n) times inside the
/// comparator.
void SortTilesBest(std::vector<Tile>* tiles, const SearchSpace& space) {
  std::vector<std::pair<Tile, double>> scored;
  scored.reserve(tiles->size());
  for (const Tile& t : *tiles) {
    scored.emplace_back(t, space.TileScore(t));
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const std::pair<Tile, double>& a,
                      const std::pair<Tile, double>& b) {
                     if (a.second != b.second) return a.second > b.second;
                     if (a.first.IndexSum() != b.first.IndexSum()) {
                       return a.first.IndexSum() < b.first.IndexSum();
                     }
                     return a.first.x < b.first.x;
                   });
  for (size_t i = 0; i < scored.size(); ++i) {
    (*tiles)[i] = scored[i].first;
  }
}

}  // namespace

int ParallelJoinExecutor::NextFetchSide() {
  bool x_done = x_->exhausted();
  bool y_done = y_->exhausted();
  if (x_done && y_done) return 0;
  // The first two calls always alternate so at least one tile exists (§4.4).
  if (space_.chunks_x() == 0 && !x_done) return -1;
  if (space_.chunks_y() == 0 && !y_done) return +1;
  if (x_done) return +1;
  if (y_done) return -1;

  switch (config_.strategy.invocation) {
    case JoinInvocation::kNestedLoop: {
      // Drain the step service (conventionally X) for its h high-ranking
      // chunks, then fetch only Y (§4.3.1).
      int h = std::max(1, x_->iface().stats().step_h);
      return space_.chunks_x() < h ? -1 : +1;
    }
    case JoinInvocation::kMergeScan: {
      // A Clock paces the two services at the inter-service ratio
      // r = ratio_x : ratio_y (§4.3.2 / the chapter's Chapter 12 pointer).
      if (!clock_.has_value()) {
        Result<Clock> clock = Clock::Create({std::max(1, config_.strategy.ratio_x),
                                             std::max(1, config_.strategy.ratio_y)});
        if (!clock.ok()) return 0;
        clock_ = std::move(clock).value();
      }
      if (x_done) clock_->Suspend(0);
      if (y_done) clock_->Suspend(1);
      int side = clock_->NextService();
      if (side < 0) return 0;
      return side == 0 ? -1 : +1;
    }
  }
  return 0;
}

std::vector<Tile> ParallelJoinExecutor::AdmittedTiles() const {
  std::vector<Tile> frontier = space_.Frontier();
  std::vector<Tile> admitted;
  switch (config_.strategy.completion) {
    case JoinCompletion::kRectangular:
      admitted = std::move(frontier);
      break;
    case JoinCompletion::kTriangular: {
      // Admit tiles whose center lies under the anti-diagonal of the
      // fetched rectangle (~half of the rectangle), plus accumulated slack.
      double m = std::max(space_.chunks_x(), 1);
      double n = std::max(space_.chunks_y(), 1);
      for (const Tile& t : frontier) {
        double pos = (t.x + 0.5) / m + (t.y + 0.5) / n;
        if (pos <= 1.0 + slack_) admitted.push_back(t);
      }
      break;
    }
  }
  SortTilesBest(&admitted, space_);
  return admitted;
}

Result<int> ParallelJoinExecutor::ProcessTile(const Tile& tile,
                                              JoinExecution* exec) {
  const Chunk& cx = x_->chunk(tile.x);
  const Chunk& cy = y_->chunk(tile.y);
  int found = 0;
  std::vector<JoinResultTuple> tile_results;
  const ColumnChunk* colx = x_->columns(tile.x);
  const ColumnChunk* coly = y_->columns(tile.y);
  std::optional<PairMode> mode;
  if (colx != nullptr && coly != nullptr) {
    mode = ComparablePairMode(colx->key(), coly->key());
  }
  if (mode.has_value()) {
    // Columnar merge-scan: one kernel pass over the canonical key columns
    // replaces |X| * |Y| predicate calls, then scores combine in a batch.
    // Pair order (i-major, j ascending) and the mul+mul+add combination
    // match the scalar loop exactly, so emitted results are bit-identical.
    const KeyColumn& kx = colx->key();
    const KeyColumn& ky = coly->key();
    auto t0 = std::chrono::steady_clock::now();
    pairs_.clear();
    switch (*mode) {
      case PairMode::kI64:
        simd::MatchEqPairsI64(kx.i64, kx.size, ky.i64, ky.size, &pairs_);
        break;
      case PairMode::kF64Bits:
        simd::MatchEqPairsI64(kx.f64_bits, kx.size, ky.f64_bits, ky.size,
                              &pairs_);
        break;
      case PairMode::kDict:
        simd::MatchEqPairsU32(kx.codes, kx.size, ky.codes, ky.size, &pairs_);
        break;
    }
    scratch_sx_.resize(pairs_.size());
    scratch_sy_.resize(pairs_.size());
    scratch_comb_.resize(pairs_.size());
    for (size_t p = 0; p < pairs_.size(); ++p) {
      scratch_sx_[p] = colx->scores()[pairs_[p].a];
      scratch_sy_[p] = coly->scores()[pairs_[p].b];
    }
    simd::CombineScores(config_.weight_x, scratch_sx_.data(), config_.weight_y,
                        scratch_sy_.data(), pairs_.size(),
                        scratch_comb_.data());
    stats_.kernel_ns += std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    ++stats_.kernel_batches;
    stats_.kernel_rows +=
        static_cast<long long>(kx.size) * static_cast<long long>(ky.size);
    tile_results.reserve(pairs_.size());
    for (size_t p = 0; p < pairs_.size(); ++p) {
      JoinResultTuple result;
      result.x = cx.tuples[colx->row_ids()[pairs_[p].a]];
      result.y = cy.tuples[coly->row_ids()[pairs_[p].b]];
      result.score_x = scratch_sx_[p];
      result.score_y = scratch_sy_[p];
      result.combined = scratch_comb_[p];
      result.tile = tile;
      tile_results.push_back(std::move(result));
      ++found;
    }
  } else {
    ++stats_.scalar_batches;
    stats_.scalar_rows += static_cast<long long>(cx.tuples.size()) *
                          static_cast<long long>(cy.tuples.size());
    for (size_t i = 0; i < cx.tuples.size(); ++i) {
      for (size_t j = 0; j < cy.tuples.size(); ++j) {
        SECO_ASSIGN_OR_RETURN(bool match,
                              predicate_(cx.tuples[i], cy.tuples[j]));
        if (!match) continue;
        JoinResultTuple result;
        result.x = cx.tuples[i];
        result.y = cy.tuples[j];
        result.score_x = i < cx.scores.size() ? cx.scores[i] : 0.0;
        result.score_y = j < cy.scores.size() ? cy.scores[j] : 0.0;
        result.combined = config_.weight_x * result.score_x +
                          config_.weight_y * result.score_y;
        result.tile = tile;
        tile_results.push_back(std::move(result));
        ++found;
      }
    }
  }
  // Within a tile, emit best combinations first.
  std::stable_sort(tile_results.begin(), tile_results.end(),
                   [](const JoinResultTuple& a, const JoinResultTuple& b) {
                     return a.combined > b.combined;
                   });
  for (JoinResultTuple& r : tile_results) {
    exec->results.push_back(std::move(r));
  }
  space_.MarkExplored(tile);
  exec->tile_order.push_back(tile);
  exec->events.push_back(JoinEvent{JoinEventKind::kProcessTile, -1, tile});
  return found;
}

Result<JoinExecution> ParallelJoinExecutor::Run() {
  JoinExecution exec;
  if (config_.columns.has_value()) {
    x_->EnableColumnar(config_.columns->x, &dict_);
    y_->EnableColumnar(config_.columns->y, &dict_);
  }
  // Concurrent priming: both sides always need their first chunk before a
  // single tile exists (§4.4), so with a pool the two opening fetches
  // overlap. Bookkeeping runs X-then-Y afterwards, matching the sequential
  // event order exactly.
  if (config_.pool != nullptr && space_.chunks_x() == 0 &&
      space_.chunks_y() == 0 && !x_->exhausted() && !y_->exhausted() &&
      config_.max_calls >= 2) {
    std::future<Result<bool>> fx =
        config_.pool->Submit([this] { return x_->FetchNext(); });
    Result<bool> got_y = y_->FetchNext();
    Result<bool> got_x = fx.get();
    SECO_RETURN_IF_ERROR(got_x.status());
    SECO_RETURN_IF_ERROR(got_y.status());
    if (got_x.value()) {
      space_.AddChunkX(x_->chunk(x_->num_chunks() - 1).RepresentativeScore());
      exec.events.push_back(
          JoinEvent{JoinEventKind::kFetchX, x_->num_chunks() - 1, Tile{}});
    }
    if (got_y.value()) {
      space_.AddChunkY(y_->chunk(y_->num_chunks() - 1).RepresentativeScore());
      exec.events.push_back(
          JoinEvent{JoinEventKind::kFetchY, y_->num_chunks() - 1, Tile{}});
    }
  }
  while (true) {
    // Process every admitted tile; stop once k results are emitted.
    bool done = false;
    while (!done) {
      std::vector<Tile> admitted = AdmittedTiles();
      if (admitted.empty()) break;
      for (const Tile& tile : admitted) {
        SECO_RETURN_IF_ERROR(ProcessTile(tile, &exec).status());
        if (static_cast<int>(exec.results.size()) >= config_.k) {
          done = true;
          break;
        }
      }
      if (config_.strategy.completion == JoinCompletion::kRectangular) break;
      // Triangular: re-evaluate (slack may admit more) only when we still
      // need results; otherwise leave deferred tiles unprocessed.
      if (!done) break;
    }
    if (static_cast<int>(exec.results.size()) >= config_.k) break;

    bool budget_left = x_->calls() + y_->calls() < config_.max_calls;
    int side = budget_left ? NextFetchSide() : 0;
    if (side == 0) {
      // No more fetches possible. Triangular completion widens its diagonal
      // threshold as a last resort (§4.4.2: c is "progressively increased")
      // so already-paid tiles beyond the diagonal can still be processed.
      if (config_.strategy.completion == JoinCompletion::kTriangular &&
          !space_.Frontier().empty()) {
        double step =
            1.0 / std::max(1, std::max(space_.chunks_x(), space_.chunks_y()));
        slack_ += step;
        continue;
      }
      break;
    }
    if (side < 0) {
      SECO_ASSIGN_OR_RETURN(bool got, x_->FetchNext());
      if (got) {
        space_.AddChunkX(x_->chunk(x_->num_chunks() - 1).RepresentativeScore());
        exec.events.push_back(
            JoinEvent{JoinEventKind::kFetchX, x_->num_chunks() - 1, Tile{}});
      }
    } else {
      SECO_ASSIGN_OR_RETURN(bool got, y_->FetchNext());
      if (got) {
        space_.AddChunkY(y_->chunk(y_->num_chunks() - 1).RepresentativeScore());
        exec.events.push_back(
            JoinEvent{JoinEventKind::kFetchY, y_->num_chunks() - 1, Tile{}});
      }
    }
    if (x_->exhausted() && y_->exhausted() && space_.Frontier().empty()) {
      break;
    }
  }
  exec.calls_x = x_->calls();
  exec.calls_y = y_->calls();
  exec.latency_sequential_ms = x_->total_latency_ms() + y_->total_latency_ms();
  exec.latency_parallel_ms =
      std::max(x_->total_latency_ms(), y_->total_latency_ms());
  exec.exhausted_x = x_->exhausted();
  exec.exhausted_y = y_->exhausted();
  stats_.chunks_decoded = x_->chunks_decoded() + y_->chunks_decoded();
  stats_.decode_fallbacks = x_->decode_fallbacks() + y_->decode_fallbacks();
  exec.columnar = stats_;
  exec.space = space_;
  return exec;
}

}  // namespace seco
