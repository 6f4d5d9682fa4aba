// Chromosome-aware mapping: a coordinate pass over any engine's output on a
// MultiReference concatenation, with junction-artefact filtering and
// (chromosome, offset) hit coordinates.
#pragma once

#include <string>
#include <vector>

#include "src/align/engine.h"
#include "src/align/read_batch.h"
#include "src/align/types.h"
#include "src/genome/multi_reference.h"
#include "src/index/fm_index.h"

namespace pim::align {

struct ChromosomeHit {
  std::size_t chromosome = 0;
  std::uint64_t offset = 0;   ///< 0-based within the chromosome.
  std::uint32_t diffs = 0;
  Strand strand = Strand::kForward;
};

struct MultiAlignmentResult {
  AlignmentStage stage = AlignmentStage::kUnaligned;
  std::vector<ChromosomeHit> hits;
  std::size_t boundary_artifacts_dropped = 0;
  bool aligned() const { return stage != AlignmentStage::kUnaligned; }
};

/// Align a batch with any engine over `index` (SoftwareEngine, PimEngine,
/// ShardedEngine, ...), then map() the BatchResult onto chromosomes. The
/// engine's EngineStats reflect the raw concatenation alignment; reads
/// whose only hits are junction artefacts map to unaligned.
class MultiAligner {
 public:
  /// `reference` must outlive the mapper; `index` must have been built over
  /// reference.concatenated() (checked here). `options` must be the
  /// engine's: its difference budget widens the junction check.
  MultiAligner(const genome::MultiReference& reference,
               const index::FmIndex& index, AlignerOptions options = {});

  /// Convert `raw` — the engine's result for `batch` — to chromosome
  /// coordinates, read by read.
  std::vector<MultiAlignmentResult> map(const ReadBatch& batch,
                                        const BatchResult& raw) const;

  const genome::MultiReference& reference() const { return *reference_; }

 private:
  MultiAlignmentResult convert(std::size_t read_length, AlignmentStage stage,
                               std::span<const AlignmentHit> hits) const;

  const genome::MultiReference* reference_;
  AlignerOptions options_;
};

}  // namespace pim::align
