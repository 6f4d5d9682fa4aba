// Multi-chip sharded execution behind the one engine seam (S38).
//
// The paper's headline numbers (Fig. 8-10) are chip-scale: Pd-way pipelined
// sub-arrays aggregated across a whole SOT-MRAM chip, and chips aggregated
// across the platform. ShardedEngine is that aggregation seam on the host
// side: it implements AlignmentEngine over N backend engine *instances*
// (one simulated chip each — see pim::hw::PimChipFleet — or N software
// engines as the zero-hardware baseline), splits a ReadBatch uniformly into
// contiguous per-shard ranges (the paper's chips are identical), fans the
// ranges out, and stitches the per-shard BatchResults back in read order.
// EngineStats merge associatively at the stitch, so the merged counters
// equal an unsharded run by construction — asserted in
// tests/test_engine.cpp as "sharded(N) == unsharded", the multi-chip
// extension of the software/PIM bit-identity invariant.
//
// Because it sits behind AlignmentEngine, every front-end programmed against
// the seam (parallel scheduler, SamWriter::write_batch, examples, benches)
// gets multi-chip execution without code changes.
//
// Thread model: each shard engine instance is driven by exactly ONE thread,
// so backends whose thread_safe() is false (PimEngine: per-chip op/energy
// tallies) shard safely — the contract is that shard instances share no
// mutable state (each PIM chip owns its platform). ShardedEngine itself
// reports thread_safe() == false because it records a per-shard load
// breakdown (shard_stats()) on each run; the chunked scheduler therefore
// runs it through the serial path, and ShardedEngine does its own fan-out.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "src/align/engine.h"
#include "src/align/read_batch.h"
#include "src/obs/metrics.h"

namespace pim::align {

/// Per-chip load observed on the last sharded run — the measured feed for
/// the chip/contention models in src/accel (see accel/measured_load.h),
/// which otherwise assume uniform per-chip load.
struct ShardStats {
  std::size_t shard = 0;        ///< Shard (chip) index.
  std::uint64_t reads = 0;      ///< Reads routed to this shard.
  std::uint64_t hits = 0;       ///< Hits this shard produced.
  double wall_ms = 0.0;         ///< This shard's align wall time.
  EngineStats stats;            ///< Full per-shard engine counters.
};

// Not final: pim::hw::PimChipFleet derives a transfer-charging engine (S43)
// that settles host->chip staging accounting after every generation.
class ShardedEngine : public AlignmentEngine {
 public:
  /// Owning: the sharded engine keeps the backend instances alive.
  /// `metrics` (nullable, must outlive the engine) receives the per-shard
  /// series of every run: "shard.<i>.reads"/"shard.<i>.hits" counters
  /// (cumulative) and "shard.<i>.wall_ms"/"shard.<i>.reads_per_ms" gauges
  /// (last run). Null = zero overhead.
  explicit ShardedEngine(std::vector<std::unique_ptr<AlignmentEngine>> shards,
                         obs::MetricsRegistry* metrics = nullptr);
  /// Non-owning: `shards` must outlive the engine (PimChipFleet owns its
  /// chips this way). Instances must be distinct objects sharing no mutable
  /// state.
  explicit ShardedEngine(std::vector<const AlignmentEngine*> shards,
                         obs::MetricsRegistry* metrics = nullptr);

  std::string_view name() const override { return "sharded"; }
  /// align_range overwrites the shard_stats() breakdown, so concurrent
  /// calls on one ShardedEngine are not allowed. (The internal per-shard
  /// fan-out is still parallel.)
  bool thread_safe() const override { return false; }
  /// The fan-out below with a sink that appends each shard's result to
  /// `out` — shard order == read order, so the stitched result and its
  /// associatively merged stats equal an unsharded run over the range.
  void align_range(const ReadBatch& batch, std::size_t begin, std::size_t end,
                   BatchResult& out) const final;

  /// Streaming execution (S39): shards run concurrently, and each shard's
  /// completed result is forwarded to `sink` as soon as it AND every
  /// lower-indexed shard finish (shard order == read order), then its arena
  /// is freed — so a multi-chip fleet streams chunks out while later chips
  /// are still aligning, instead of holding all shard results until join.
  /// `chunk_size` is ignored: the shard ranges are the chunks.
  EngineStats align_batch_chunked(const ReadBatch& batch,
                                  std::size_t chunk_size,
                                  const ChunkSink& sink) const final;

  std::size_t num_shards() const { return shards_.size(); }
  const AlignmentEngine& shard(std::size_t i) const { return *shards_[i]; }

  /// Per-chip breakdown of the last align_range/align_batch call (empty
  /// before the first run). Shards with no reads still appear, with zeroed
  /// counters.
  const std::vector<ShardStats>& shard_stats() const { return shard_stats_; }

  /// Uniform contiguous partition of `reads`: num_shards()+1 monotone
  /// boundaries, bound s = reads*s/num_shards() rounded half up (so
  /// front()==0, back()==reads, and shard sizes differ by at most one).
  /// Exposed for tests and front-ends that pre-route per-shard data.
  std::vector<std::size_t> partition(std::size_t reads) const;

 protected:
  /// Called once per generation (one align_range / align_batch_chunked
  /// call) after every shard has joined and every chunk was delivered, on
  /// the driving thread: batch reads [begin + bounds[s], begin +
  /// bounds[s+1]) went to shard s. Not called when the fan-out throws.
  virtual void on_generation(const ReadBatch& /*batch*/,
                             std::size_t /*begin*/,
                             const std::vector<std::size_t>& /*bounds*/)
      const {}

 private:
  /// Per-shard metric handles (empty when no registry is installed).
  struct ShardSeries {
    obs::Counter reads;
    obs::Counter hits;
    obs::Gauge wall_ms;
    obs::Gauge reads_per_ms;
  };

  /// The one fan-out: aligns reads [begin, end) across the shards and
  /// forwards each shard's result to `sink` in shard order. Returns the
  /// merged stats of the forwarded chunks plus the in-order forwarding
  /// stall (time blocked on unfinished predecessor shards).
  EngineStats fan_out(const ReadBatch& batch, std::size_t begin,
                      std::size_t end, const ChunkSink& sink) const;
  void init_metrics(obs::MetricsRegistry* metrics);

  std::vector<std::unique_ptr<AlignmentEngine>> owned_;
  std::vector<const AlignmentEngine*> shards_;
  mutable std::vector<ShardStats> shard_stats_;
  std::vector<ShardSeries> series_;
};

}  // namespace pim::align
