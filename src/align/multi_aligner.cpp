#include "src/align/multi_aligner.h"

#include <algorithm>
#include <stdexcept>

namespace pim::align {

MultiAligner::MultiAligner(const genome::MultiReference& reference,
                           const index::FmIndex& index,
                           AlignerOptions options)
    : reference_(&reference), options_(options) {
  if (index.reference_size() != reference.total_length()) {
    throw std::invalid_argument(
        "MultiAligner: index not built over this MultiReference");
  }
}

MultiAlignmentResult MultiAligner::convert(
    std::size_t read_length, AlignmentStage stage,
    std::span<const AlignmentHit> hits) const {
  MultiAlignmentResult result;

  // The matched reference span can stretch by the difference budget when
  // indels are allowed; be conservative at junctions.
  const std::uint64_t span =
      read_length + options_.inexact.max_diffs;

  for (const auto& hit : hits) {
    // Clamp to the concatenation end: a hit whose worst-case span would run
    // off the end is fine as long as it stays within its chromosome.
    const std::uint64_t clamped = std::min<std::uint64_t>(
        span, reference_->total_length() - hit.position);
    if (reference_->spans_boundary(hit.position, clamped)) {
      ++result.boundary_artifacts_dropped;
      continue;
    }
    const auto loc = reference_->locate(hit.position);
    if (!loc) {
      ++result.boundary_artifacts_dropped;
      continue;
    }
    result.hits.push_back(
        ChromosomeHit{loc->chromosome, loc->offset, hit.diffs, hit.strand});
  }
  // The stage only counts if real (non-artefact) hits survive.
  if (!result.hits.empty()) {
    result.stage = stage;
  }
  return result;
}

std::vector<MultiAlignmentResult> MultiAligner::map(
    const ReadBatch& batch, const BatchResult& raw) const {
  if (batch.size() != raw.size()) {
    throw std::invalid_argument("MultiAligner::map: batch/result size differ");
  }
  std::vector<MultiAlignmentResult> results;
  results.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    results.push_back(convert(batch.read_length(i), raw.stage(i), raw.hits(i)));
  }
  return results;
}

}  // namespace pim::align
