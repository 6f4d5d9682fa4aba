// PIM platform walkthrough — the hardware side of the paper.
//
// Builds the computational sub-array tiles for a reference (the
// partitioning of Fig. 6a), runs one LFM step by step through the
// in-memory primitives, aligns a read batch on the platform, and shows the
// result is bit-identical to the software FM-index while every sub-array
// operation is charged to the timing/energy model.
#include <cstdio>

#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/pim/pim_engine.h"
#include "src/readsim/read_simulator.h"
#include "src/util/table.h"

int main() {
  using namespace pim;
  using util::TextTable;

  genome::SyntheticGenomeSpec spec;
  spec.length = 150000;
  spec.seed = 3;
  const auto reference = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});

  const hw::TimingEnergyModel timing;
  hw::PimAlignerPlatform platform(fm, timing);

  const hw::ZoneLayout layout;
  std::printf("platform: %zu computational sub-arrays (512x256 each)\n",
              platform.num_tiles());
  std::printf("zones per sub-array: BWT rows [0,%u), CRef [%u,%u), "
              "MT [%u,%u), reserved [%u,512)\n",
              layout.cref_zone_begin(), layout.cref_zone_begin(),
              layout.mt_zone_begin(), layout.mt_zone_begin(),
              layout.reserved_zone_begin(), layout.reserved_zone_begin());
  const auto load = platform.aggregate_load_stats();
  std::printf("one-time load: %llu row writes, %.2f uJ\n\n",
              static_cast<unsigned long long>(load.writes),
              load.energy_pj * 1e-6);

  // --- One LFM, step by step ------------------------------------------------
  const std::uint64_t id = 33000;  // lands in tile 1, off-checkpoint
  const auto nt = genome::Base::G;
  platform.reset_stats();
  const std::uint64_t hw_value = platform.lfm(nt, id);
  const std::uint64_t sw_value = fm.lfm(nt, id);
  const auto stats = platform.aggregate_stats();
  std::printf("LFM(MT, G, %llu):\n", static_cast<unsigned long long>(id));
  std::printf("  hardware result %llu, software result %llu  [%s]\n",
              static_cast<unsigned long long>(hw_value),
              static_cast<unsigned long long>(sw_value),
              hw_value == sw_value ? "bit-identical" : "MISMATCH");
  std::printf("  ops: %llu triple senses (1 XNOR_Match + 32 adder cycles), "
              "%llu writes, %llu reads, %llu DPU ops\n",
              static_cast<unsigned long long>(stats.ops.triple_senses),
              static_cast<unsigned long long>(stats.ops.writes),
              static_cast<unsigned long long>(stats.ops.reads),
              static_cast<unsigned long long>(stats.ops.dpu_word_ops));
  std::printf("  cost: %.1f ns serial, %.1f pJ\n\n", stats.ops.busy_ns,
              stats.ops.energy_pj);

  // --- A read batch on the hardware ------------------------------------------
  readsim::ReadSimSpec rspec;
  rspec.read_length = 100;
  rspec.num_reads = 200;
  rspec.population_variation_rate = 0.001;
  rspec.sequencing_error_rate = 0.002;
  rspec.seed = 5;
  const auto set = readsim::ReadSimulator(rspec).generate(reference);
  align::ReadBatchBuilder builder;
  builder.reserve(set.reads.size(), set.reads.size() * rspec.read_length);
  for (const auto& r : set.reads) builder.add(r.bases);
  const auto batch = builder.build();

  align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  const hw::PimEngine engine(platform, options);
  align::BatchResult hw_results;
  const auto report = engine.run(batch, hw_results);
  const align::EngineStats& outcomes = hw_results.stats();

  TextTable out({"metric", "value"});
  out.add_row({"reads", std::to_string(outcomes.reads_total)});
  out.add_row({"exact / inexact / unaligned",
               std::to_string(outcomes.reads_exact) + " / " +
                   std::to_string(outcomes.reads_inexact) + " / " +
                   std::to_string(outcomes.reads_unaligned)});
  out.add_row({"LFM calls", std::to_string(report.hardware.lfm_calls)});
  out.add_row({"sub-array energy (uJ)",
               TextTable::num(report.energy_pj * 1e-6)});
  out.add_row({"serial busy time (ms)",
               TextTable::num(report.busy_ns * 1e-6)});
  std::printf("%s", out.render().c_str());

  // Cross-check the whole batch against the software engine: same reads,
  // same interface, different backend — the results must be bit-identical.
  const align::SoftwareEngine software(fm, options);
  align::BatchResult sw_results;
  software.align_batch(batch, sw_results);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (sw_results.stage(i) != hw_results.stage(i) ||
        sw_results.hits(i).size() != hw_results.hits(i).size()) {
      ++mismatches;
      continue;
    }
    for (std::size_t h = 0; h < sw_results.hits(i).size(); ++h) {
      const auto& a = sw_results.hits(i)[h];
      const auto& b = hw_results.hits(i)[h];
      if (a.position != b.position || a.diffs != b.diffs ||
          a.strand != b.strand) {
        ++mismatches;
        break;
      }
    }
  }
  // The shared two-stage core also makes the search counters identical.
  const align::EngineStats& sw = sw_results.stats();
  if (sw.hits_total != outcomes.hits_total ||
      sw.exact_searches != outcomes.exact_searches ||
      sw.inexact_searches != outcomes.inexact_searches) {
    ++mismatches;
  }
  std::printf("\nsoftware/hardware engine cross-check on %zu reads: "
              "%zu mismatches\n",
              batch.size(), mismatches);
  return 0;
}
