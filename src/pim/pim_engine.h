// The PIM platform behind the unified AlignmentEngine interface (S37).
//
// The Digital Processing Unit of Fig. 3 "takes the reference genome-S and
// number of mismatches-z as the inputs and adjusts the controller unit to
// govern timing and data flow of the alignment task". PimEngine is that
// role: it runs the same two-stage core as align::SoftwareEngine
// (src/align/two_stage_core.h), but every backward-extension step executes
// as MEM/XNOR_Match/IM_ADD operations on the simulated SOT-MRAM sub-arrays
// and every SA locate is charged as SA MEM reads — so batch front-ends (the
// chunked scheduler, SAM output, benches) swap backends without code
// changes, and the software/PIM bit-identical-results invariant (hits AND
// EngineStats counters) is asserted at the engine seam
// (tests/test_engine.cpp).
//
// The engine reports thread_safe() == false: sub-array op/energy tallies
// are shared mutable state, so the scheduler runs PIM batches serially —
// which also matches the platform model (one DPU issuing commands).
#pragma once

#include "src/align/engine.h"
#include "src/pim/platform.h"

namespace pim::hw {

/// Hardware tallies of one PimEngine::run; the read outcomes of the same
/// batch are in the BatchResult's stats().
struct HwBatchReport {
  PimAlignerPlatform::AggregateStats hardware;  ///< Op tallies over the batch.
  /// Wall-model time: serial sum of sub-array busy time. The chip model
  /// converts this to throughput under the pipeline/parallelism model.
  double busy_ns = 0.0;
  double energy_pj = 0.0;
};

class PimEngine final : public align::AlignmentEngine {
 public:
  explicit PimEngine(PimAlignerPlatform& platform,
                     align::AlignerOptions options = {})
      : platform_(&platform), options_(options) {}

  std::string_view name() const override { return "pim-mram"; }
  bool thread_safe() const override { return false; }
  void align_range(const align::ReadBatch& batch, std::size_t begin,
                   std::size_t end, align::BatchResult& out) const override;

  /// Align a whole batch into `out` and report the hardware op/energy
  /// tallies (resets the platform's stats at entry so the report covers
  /// exactly this batch).
  HwBatchReport run(const align::ReadBatch& batch,
                    align::BatchResult& out) const;

  PimAlignerPlatform& platform() const { return *platform_; }
  const align::AlignerOptions& options() const { return options_; }

 private:
  PimAlignerPlatform* platform_;
  align::AlignerOptions options_;
};

}  // namespace pim::hw
