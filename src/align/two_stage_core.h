// The two-stage pipeline (Section III), written once for every backend.
//
// Stage one attempts exact alignment (Algorithm 1) on the read and its
// reverse complement; reads that miss go through stage two's inexact search
// (Algorithm 2). For typical data ~70% of reads finish at stage one — a
// figure the integration tests and the alignment_pipeline bench reproduce
// from the read simulator's error rates. The policy around the searches —
// stage order, strand order, the max_hits cap, the minimum-diff position
// dedup and the hit sort order — lives only here, templated on a Backend
// like the search cores in search_core.h and seed_extend_core.h. Two
// backends exist:
//   * FmSearchBackend (below)         — the software FM-index path
//                                       (SoftwareEngine);
//   * the platform adapter in         — the same calls charged as sub-array
//     src/pim/pim_engine.cpp            operations (pim::hw::PimEngine).
// Both engines instantiate align_two_stage, so their hits and EngineStats
// counters are identical by construction; the PIM side adds only the
// cycle/energy tallies. The backend's calls happen in the order below, which
// is the order the hardware model charges them.
//
// Backend requirements:
//   ExactResult exact_search(const std::vector<genome::Base>&) const;
//   InexactResult inexact_search(const std::vector<genome::Base>&,
//                                const InexactOptions&) const;
//   void locate_all_into(const index::SaInterval&,
//                        std::vector<std::uint64_t>&) const;  // sorted
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/align/backward_search.h"
#include "src/align/engine.h"
#include "src/align/inexact_search.h"
#include "src/align/types.h"
#include "src/genome/alphabet.h"
#include "src/index/fm_index.h"

namespace pim::align {

/// The software backend: Algorithms 1 and 2 straight over an FmIndex.
struct FmSearchBackend {
  const index::FmIndex* index;

  ExactResult exact_search(const std::vector<genome::Base>& read) const {
    return align::exact_search(*index, read);
  }
  InexactResult inexact_search(const std::vector<genome::Base>& read,
                               const InexactOptions& options) const {
    return align::inexact_search(*index, read, options);
  }
  void locate_all_into(const index::SaInterval& interval,
                       std::vector<std::uint64_t>& out) const {
    index->locate_all_into(interval, out);
  }
};

namespace detail {

/// Reusable per-worker buffers for the two-stage pipeline: the unpacked
/// read, its reverse complement, the read's hit set, and the SA-locate
/// outputs. One set per worker replaces several heap allocations per read.
struct TwoStageScratch {
  std::vector<genome::Base> read;
  std::vector<genome::Base> rc;
  std::vector<AlignmentHit> hits;
  std::vector<std::uint64_t> positions;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> located;
};

/// Hit order of a read's result: by position, then by diffs.
inline bool position_order(const AlignmentHit& a, const AlignmentHit& b) {
  if (a.position != b.position) return a.position < b.position;
  return a.diffs < b.diffs;
}

/// Stage two's search + locate: every start position over all hit
/// intervals, ascending and deduplicated, each paired with the minimum diff
/// count of the intervals that reach it. `positions` is locate scratch.
template <typename Backend>
void inexact_locate_into(
    const Backend& backend, const std::vector<genome::Base>& read,
    const InexactOptions& options, std::vector<std::uint64_t>& positions,
    std::vector<std::pair<std::uint64_t, std::uint32_t>>& out) {
  out.clear();
  const InexactResult result = backend.inexact_search(read, options);
  for (const auto& hit : result.hits) {
    backend.locate_all_into(hit.interval, positions);
    for (const auto pos : positions) out.emplace_back(pos, hit.diffs);
  }
  // Sorting (position, diffs) pairs puts each position's minimum first.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            out.end());
}

/// Align one read through both stages. On return scratch.hits holds the
/// read's hits in position order; `stats` counts the strand searches issued.
template <typename Backend>
AlignmentStage align_two_stage(const Backend& backend,
                               const AlignerOptions& options,
                               const std::vector<genome::Base>& read,
                               TwoStageScratch& scratch, EngineStats& stats) {
  auto& hits = scratch.hits;
  hits.clear();
  const auto room = [&] {
    return options.max_hits == 0 || hits.size() < options.max_hits;
  };
  bool rc_ready = false;
  const auto reverse = [&]() -> const std::vector<genome::Base>& {
    if (!rc_ready) genome::reverse_complement_into(read, scratch.rc);
    rc_ready = true;
    return scratch.rc;
  };

  const auto exact = [&](const std::vector<genome::Base>& oriented,
                         Strand strand) {
    ++stats.exact_searches;
    const ExactResult result = backend.exact_search(oriented);
    if (!result.found()) return;
    backend.locate_all_into(result.interval, scratch.positions);
    for (const auto pos : scratch.positions) {
      hits.push_back(AlignmentHit{pos, 0, strand});
      if (!room()) return;
    }
  };
  const auto inexact = [&](const std::vector<genome::Base>& oriented,
                           Strand strand) {
    ++stats.inexact_searches;
    inexact_locate_into(backend, oriented, options.inexact, scratch.positions,
                        scratch.located);
    for (const auto& [pos, diffs] : scratch.located) {
      hits.push_back(AlignmentHit{pos, diffs, strand});
      if (!room()) return;
    }
  };

  AlignmentStage stage = AlignmentStage::kUnaligned;
  // Stage one: exact alignment, both strands.
  exact(read, Strand::kForward);
  if (options.try_reverse_complement && room()) {
    exact(reverse(), Strand::kReverseComplement);
  }
  if (!hits.empty()) {
    stage = AlignmentStage::kExact;
  } else if (options.inexact.max_diffs > 0) {
    // Stage two: inexact alignment with the configured difference budget.
    inexact(read, Strand::kForward);
    if (options.try_reverse_complement && room()) {
      inexact(reverse(), Strand::kReverseComplement);
    }
    if (!hits.empty()) stage = AlignmentStage::kInexact;
  }
  std::sort(hits.begin(), hits.end(), position_order);
  return stage;
}

}  // namespace detail
}  // namespace pim::align
