// Shared result/option types: the exact and inexact search cores, and the
// per-read outcome of the two-stage pipeline that every engine reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/index/fm_index.h"

namespace pim::align {

struct ExactResult {
  index::SaInterval interval;   ///< Final interval; valid() <=> read found.
  std::uint32_t steps = 0;      ///< Backward-extension steps executed.
  bool found() const { return interval.valid(); }
  std::uint64_t occurrence_count() const { return interval.count(); }
};

enum class EditMode {
  kSubstitutionsOnly,  ///< Mismatches only (Algorithm 2's main loop).
  kFullEdit,           ///< Substitutions + insertions + deletions.
};

struct InexactOptions {
  std::uint32_t max_diffs = 2;      ///< z; the paper evaluates reads with <=2.
  EditMode mode = EditMode::kSubstitutionsOnly;
  /// Occurrence lower-bound pruning (BWA's calculate-D). Cuts search paths
  /// that provably cannot finish within z; never changes the result set.
  bool use_lower_bound_pruning = true;
  /// Hard cap on explored search states, a defence against pathological
  /// references; 0 = unlimited. When hit, the result is marked truncated.
  std::uint64_t max_states = 0;
};

struct InexactHit {
  index::SaInterval interval;
  std::uint32_t diffs = 0;  ///< Differences used (minimum over paths).
};

struct InexactResult {
  std::vector<InexactHit> hits;  ///< Distinct intervals, ascending by low.
  std::uint64_t states_explored = 0;
  bool truncated = false;

  bool found() const { return !hits.empty(); }
  std::uint32_t best_diffs() const;
  std::uint64_t total_occurrences() const;
};

enum class Strand : std::uint8_t { kForward, kReverseComplement };

struct AlignmentHit {
  std::uint64_t position = 0;  ///< Start in the reference (forward coords).
  std::uint32_t diffs = 0;
  Strand strand = Strand::kForward;
};

enum class AlignmentStage : std::uint8_t {
  kUnaligned,  ///< Neither stage found a hit within the difference budget.
  kExact,      ///< Stage one.
  kInexact,    ///< Stage two.
};

/// One read's outcome as an owned value — what serving and the wire
/// protocol carry per read. Batch paths keep hits in a BatchResult arena
/// and materialize this only at such boundaries.
struct AlignmentResult {
  AlignmentStage stage = AlignmentStage::kUnaligned;
  std::vector<AlignmentHit> hits;  ///< Sorted by position.
  bool aligned() const { return stage != AlignmentStage::kUnaligned; }
  /// The best (fewest-diff, leftmost) hit, if any.
  std::optional<AlignmentHit> best() const;
};

/// Options of the two-stage pipeline (Section III): stage one attempts
/// exact alignment; reads that fail go through stage two's inexact search.
/// Reads may come from either strand, so each stage tries the read and its
/// reverse complement, as BWA/Bowtie do.
struct AlignerOptions {
  InexactOptions inexact;       ///< Stage-two budget (z, edit mode, pruning).
  bool try_reverse_complement = true;
  /// Cap on reported hits per read (a read landing in a huge repeat family
  /// can hit thousands of loci); 0 = unlimited.
  std::size_t max_hits = 64;
};

}  // namespace pim::align
