#include "src/align/sharded_engine.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace pim::align {

namespace {

void validate(const std::vector<const AlignmentEngine*>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("ShardedEngine: no shard engines");
  }
  for (const auto* engine : shards) {
    if (engine == nullptr) {
      throw std::invalid_argument("ShardedEngine: null shard engine");
    }
  }
}

}  // namespace

ShardedEngine::ShardedEngine(
    std::vector<std::unique_ptr<AlignmentEngine>> shards,
    obs::MetricsRegistry* metrics)
    : owned_(std::move(shards)) {
  shards_.reserve(owned_.size());
  for (const auto& engine : owned_) shards_.push_back(engine.get());
  validate(shards_);
  init_metrics(metrics);
}

ShardedEngine::ShardedEngine(std::vector<const AlignmentEngine*> shards,
                             obs::MetricsRegistry* metrics)
    : shards_(std::move(shards)) {
  validate(shards_);
  init_metrics(metrics);
}

void ShardedEngine::init_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  // Registration up front (construction is single-threaded); the per-run
  // publishes are lock-free counter adds and atomic gauge stores.
  series_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    ShardSeries series;
    series.reads = metrics->counter(prefix + "reads");
    series.hits = metrics->counter(prefix + "hits");
    series.wall_ms = metrics->gauge(prefix + "wall_ms");
    series.reads_per_ms = metrics->gauge(prefix + "reads_per_ms");
    series_.push_back(series);
  }
}

std::vector<std::size_t> ShardedEngine::partition(std::size_t reads) const {
  // Round half up in integers: floor(reads*s/num + 1/2).
  const std::size_t num = shards_.size();
  std::vector<std::size_t> bounds(num + 1);
  for (std::size_t s = 0; s <= num; ++s) {
    bounds[s] = (2 * reads * s + num) / (2 * num);
  }
  return bounds;
}

EngineStats ShardedEngine::fan_out(const ReadBatch& batch, std::size_t begin,
                                   std::size_t end,
                                   const ChunkSink& sink) const {
  using Clock = std::chrono::steady_clock;
  const std::size_t num = shards_.size();
  // Reset the per-shard breakdown at call entry, not mid-fan-out: a reused
  // engine never reports a previous batch's load, even if a shard throws
  // before any stats land.
  shard_stats_.assign(num, ShardStats{});
  const auto bounds = partition(end - begin);
  std::vector<BatchResult> chunks(num);
  EngineStats total;

  auto run_shard = [&](std::size_t s) {
    const std::size_t lo = begin + bounds[s];
    const std::size_t hi = begin + bounds[s + 1];
    const auto t0 = Clock::now();
    if (hi > lo) {
      chunks[s].reserve(hi - lo, (hi - lo) * 2);
      shards_[s]->align_range(batch, lo, hi, chunks[s]);
    }
    const auto t1 = Clock::now();
    ShardStats& stats = shard_stats_[s];
    stats.shard = s;
    stats.reads = chunks[s].stats().reads_total;
    stats.hits = chunks[s].stats().hits_total;
    stats.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    stats.stats = chunks[s].stats();
    stats.stats.wall_ms = stats.wall_ms;
    if (!series_.empty()) {
      // Each shard is driven by exactly one thread, so these publishes are
      // the single-writer fast path of the registry.
      const ShardSeries& series = series_[s];
      series.reads.add(stats.reads);
      series.hits.add(stats.hits);
      series.wall_ms.set(stats.wall_ms);
      series.reads_per_ms.set(stats.reads > 0 && stats.wall_ms > 1e-6
                                  ? static_cast<double>(stats.reads) /
                                        stats.wall_ms
                                  : 0.0);
    }
  };

  // Forward shard s to the sink once it and all predecessors are done:
  // shard order == read order, so delivery is globally in index order, and
  // freeing each forwarded chunk keeps resident results bounded by the
  // not-yet-forwarded shards instead of the whole batch.
  auto forward = [&](std::size_t s) {
    if (bounds[s + 1] == bounds[s]) return;
    const std::size_t lo = begin + bounds[s];
    sink(BatchResultChunk{&batch, lo, begin + bounds[s + 1], &chunks[s], lo});
    total.merge(chunks[s].stats());
    ++total.chunks;
    chunks[s] = BatchResult();  // free the forwarded arena
  };

  if (num > 1 && end - begin > 1) {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<char> done(num, 0);
    std::vector<std::exception_ptr> errors(num);
    std::vector<std::thread> threads;
    threads.reserve(num);
    for (std::size_t s = 0; s < num; ++s) {
      threads.emplace_back([&, s]() {
        try {
          run_shard(s);
        } catch (...) {
          errors[s] = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lk(mu);
          done[s] = 1;
        }
        cv.notify_all();
      });
    }
    // The calling thread forwards completions in shard order while later
    // shards are still aligning. Time spent blocked on an unfinished
    // predecessor is the fan-out's stall: a straggler shard shows up here.
    std::exception_ptr forward_error;
    for (std::size_t s = 0; s < num; ++s) {
      {
        std::unique_lock<std::mutex> lk(mu);
        if (done[s] == 0) {
          const auto w0 = Clock::now();
          cv.wait(lk, [&] { return done[s] != 0; });
          total.stall_ms +=
              std::chrono::duration<double, std::milli>(Clock::now() - w0)
                  .count();
        }
      }
      if (errors[s]) break;  // join everything, then rethrow in shard order
      try {
        forward(s);
      } catch (...) {
        forward_error = std::current_exception();
        break;
      }
    }
    for (auto& t : threads) t.join();
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    if (forward_error) std::rethrow_exception(forward_error);
  } else {
    // One shard or at most one read: nothing to overlap, and the serial
    // fan-out never blocks on a predecessor.
    for (std::size_t s = 0; s < num; ++s) {
      run_shard(s);
      forward(s);
    }
  }
  on_generation(batch, begin, bounds);
  return total;
}

void ShardedEngine::align_range(const ReadBatch& batch, std::size_t begin,
                                std::size_t end, BatchResult& out) const {
  const EngineStats stats =
      fan_out(batch, begin, end, [&out](const BatchResultChunk& chunk) {
        out.append(*chunk.result);
      });
  out.stats().stall_ms += stats.stall_ms;
}

EngineStats ShardedEngine::align_batch_chunked(const ReadBatch& batch,
                                               std::size_t /*chunk_size*/,
                                               const ChunkSink& sink) const {
  const auto t0 = std::chrono::steady_clock::now();
  EngineStats total = fan_out(batch, 0, batch.size(), sink);
  const auto t1 = std::chrono::steady_clock::now();
  total.batches = 1;
  total.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return total;
}

}  // namespace pim::align
