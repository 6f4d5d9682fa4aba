// Unified batch alignment engine (S37).
//
// One interface — align_batch(const ReadBatch&, BatchResult&) — across every
// backend: the two-stage software FM pipeline (SoftwareEngine), the
// simulated SOT-MRAM platform (pim::hw::PimEngine, defined in src/pim to
// respect library layering), and seed-and-extend long-read alignment
// (SeedExtendEngine). It is the only way to align: the front-ends — the
// chunked parallel scheduler, ShardedEngine, StreamingPipeline, the serving
// layer, PairedAligner, MultiAligner's coordinate pass, SamWriter, examples
// and benches — all program against AlignmentEngine, so swapping the
// software path for the PIM model is a one-line change. SoftwareEngine and
// PimEngine share one two-stage core (two_stage_core.h), and the
// software/PIM bit-identical-results invariant is asserted at this seam
// (tests/test_engine.cpp).
//
// BatchResult is arena-backed like ReadBatch: all hits of a batch live in
// one contiguous vector with per-read extents, so the engine path performs
// O(1) heap allocations per batch. It keeps every hit the engine reports
// (at most AlignerOptions::max_hits per read); a caller that wants only the
// primary placement reads best(i). EngineStats carries the per-stage
// counters of every run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/align/read_batch.h"
#include "src/align/seed_extend.h"
#include "src/align/types.h"
#include "src/genome/packed_sequence.h"
#include "src/index/fm_index.h"

namespace pim::align {

/// Per-stage engine statistics: stage outcomes, search-invocation counters,
/// wall time, and result-arena allocation. Merges associatively, so chunked
/// parallel workers accumulate privately and combine at join.
struct EngineStats {
  std::uint64_t reads_total = 0;
  std::uint64_t reads_exact = 0;
  std::uint64_t reads_inexact = 0;
  std::uint64_t reads_unaligned = 0;
  std::uint64_t hits_total = 0;
  /// Strand searches issued per stage (2 per read with
  /// try_reverse_complement; stage two only runs for stage-one misses).
  std::uint64_t exact_searches = 0;
  std::uint64_t inexact_searches = 0;
  std::uint64_t batches = 0;
  double wall_ms = 0.0;            ///< align_batch / scheduler wall time.
  std::uint64_t result_bytes = 0;  ///< BatchResult arena footprint.
  /// Chunks delivered through the chunk seam (S39): align_batch_chunked,
  /// the chunked parallel scheduler's in-order drain, and ShardedEngine's
  /// per-shard forwarding all count here. 0 on non-chunked paths.
  std::uint64_t chunks = 0;
  /// Scheduler stall time (S39/S40): worker wait on the bounded start
  /// window plus in-order forwarding wait on unfinished predecessors.
  /// Execution-shape dependent (threads/chunking), unlike the workload
  /// counters above — equivalence tests must not compare it.
  double stall_ms = 0.0;

  double exact_fraction() const {
    return reads_total ? static_cast<double>(reads_exact) /
                             static_cast<double>(reads_total)
                       : 0.0;
  }
  void merge(const EngineStats& other);
};

/// Arena-backed batch results: stages + one contiguous hits vector with
/// per-read extents. Materialize an owned AlignmentResult with result(i)
/// only where one must outlive the batch (serving, the wire protocol).
class BatchResult {
 public:
  BatchResult() { hit_begin_.push_back(0); }

  void clear();
  void reserve(std::size_t reads, std::size_t expected_hits);

  /// Append the next read's outcome (reads arrive in order). Updates the
  /// stage/hit counters in stats().
  void add_read(AlignmentStage stage, std::span<const AlignmentHit> hits);
  /// Stitch a chunk produced by a parallel worker onto this result.
  void append(const BatchResult& chunk);

  std::size_t size() const { return stages_.size(); }
  AlignmentStage stage(std::size_t i) const { return stages_[i]; }
  bool aligned(std::size_t i) const {
    return stages_[i] != AlignmentStage::kUnaligned;
  }
  std::span<const AlignmentHit> hits(std::size_t i) const {
    return std::span<const AlignmentHit>(hits_.data() + hit_begin_[i],
                                         hit_begin_[i + 1] - hit_begin_[i]);
  }
  /// Best (fewest-diff, leftmost) hit of read i, like AlignmentResult::best.
  std::optional<AlignmentHit> best(std::size_t i) const;

  /// Materialize read i as an owned per-read result (copies the hits).
  AlignmentResult result(std::size_t i) const;
  std::vector<AlignmentResult> to_results() const;

  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }

  std::size_t memory_bytes() const;

 private:
  std::vector<AlignmentStage> stages_;
  std::vector<std::uint64_t> hit_begin_;  ///< size()+1 extents into hits_.
  std::vector<AlignmentHit> hits_;
  EngineStats stats_;
};

/// A completed slice of a batch's results, handed to a ChunkSink as soon as
/// the chunk (and every chunk before it) finishes. `result` holds exactly
/// the reads [begin, end) of `batch`, so read i of the batch is
/// result->result(i - begin). Valid only for the duration of the sink call —
/// the producer recycles the arena afterwards.
struct BatchResultChunk {
  const ReadBatch* batch = nullptr;
  std::size_t begin = 0;  ///< First read of the chunk (batch index).
  std::size_t end = 0;    ///< One past the last read.
  const BatchResult* result = nullptr;
  /// Global index of read `begin` across a whole stream of batches (equals
  /// `begin` for standalone batches); SamWriter uses it to backfill
  /// "read<i>" names consistently with a non-streaming write_batch.
  std::size_t base_index = 0;

  std::size_t size() const { return end - begin; }
};

/// Called with completed chunks in read-index order. Sinks are invoked from
/// at most one thread at a time (calls are serialized by the producer), but
/// not necessarily from the thread that started the alignment.
using ChunkSink = std::function<void(const BatchResultChunk&)>;

/// The one engine interface. Implementations align half-open read ranges of
/// a batch; align_batch adds timing. align_range must append exactly
/// (end - begin) reads to `out` in read order. Engines whose thread_safe()
/// returns true guarantee align_range is safe to call concurrently from
/// multiple threads (on disjoint output chunks) — the chunked parallel
/// scheduler in parallel_aligner.h checks this before fanning out.
class AlignmentEngine {
 public:
  virtual ~AlignmentEngine() = default;

  virtual std::string_view name() const = 0;
  virtual bool thread_safe() const { return false; }
  virtual void align_range(const ReadBatch& batch, std::size_t begin,
                           std::size_t end, BatchResult& out) const = 0;

  /// Align the whole batch serially into `out` (cleared first), recording
  /// wall time and arena footprint in out.stats().
  void align_batch(const ReadBatch& batch, BatchResult& out) const;

  /// Streaming alternative to align_batch: align the batch in chunks of
  /// `chunk_size` reads (0 picks a default), delivering each completed chunk
  /// to `sink` in index order instead of materializing one whole-batch
  /// BatchResult — memory stays O(chunk) rather than O(batch). The default
  /// implementation runs chunks serially through align_range; ShardedEngine
  /// overrides it to forward per-shard completions, and the chunked parallel
  /// scheduler (align_batch_parallel_chunked) provides the multi-threaded
  /// version for thread-safe engines. Returns the merged stats of the run.
  virtual EngineStats align_batch_chunked(const ReadBatch& batch,
                                          std::size_t chunk_size,
                                          const ChunkSink& sink) const;
};

/// The two-stage FM pipeline (Algorithms 1 and 2) as an engine. Stateless
/// between calls and const over an immutable index, hence thread-safe.
class SoftwareEngine final : public AlignmentEngine {
 public:
  explicit SoftwareEngine(const index::FmIndex& index,
                          AlignerOptions options = {})
      : index_(&index), options_(options) {}

  std::string_view name() const override { return "software-fm"; }
  bool thread_safe() const override { return true; }
  void align_range(const ReadBatch& batch, std::size_t begin, std::size_t end,
                   BatchResult& out) const override;

  const AlignerOptions& options() const { return options_; }
  const index::FmIndex& index() const { return *index_; }

 private:
  const index::FmIndex* index_;
  AlignerOptions options_;
};

/// Seed-and-extend long-read alignment as an engine. Hits carry the
/// extension kernel's precise alignment start and honest edit count
/// (AlignmentHit.diffs), so SAM NM tags and best() ranking reflect the
/// alignment rather than reporting 0. With options.both_strands (default)
/// both orientations are verified and all placements kept — a spurious
/// forward seed chain cannot mask the true reverse-strand placement;
/// otherwise the reverse complement is tried only on a forward miss. Reads
/// whose best placement is edit-free count as stage one, the rest as stage
/// two, mirroring the short-read pipeline's exact/inexact split.
class SeedExtendEngine final : public AlignmentEngine {
 public:
  /// `reference` must be the sequence `index` was built over.
  SeedExtendEngine(const index::FmIndex& index,
                   const genome::PackedSequence& reference,
                   SeedExtendOptions options = {});

  std::string_view name() const override { return "seed-extend"; }
  bool thread_safe() const override { return true; }
  void align_range(const ReadBatch& batch, std::size_t begin, std::size_t end,
                   BatchResult& out) const override;

  const SeedExtendOptions& options() const { return options_; }

 private:
  const index::FmIndex* index_;
  const genome::PackedSequence* reference_;
  SeedExtendOptions options_;
};

/// `count` independent SeedExtendEngine instances over one index/reference
/// — the shard set ShardedEngine consumes (engines are stateless, so shards
/// differ only in identity).
std::vector<std::unique_ptr<AlignmentEngine>> make_seed_extend_shards(
    const index::FmIndex& index, const genome::PackedSequence& reference,
    std::size_t count, const SeedExtendOptions& options = {});

}  // namespace pim::align
