// Algorithm-level evaluation — the two-stage pipeline of Section III on an
// ART-like workload at the paper's rates (0.1% population variation, 0.2%
// sequencing error): stage mix (~70% exact), alignment/origin-recovery
// rates, per-read LFM counts, and the hardware op/energy tallies of the
// simulated PIM execution.
#include <cstdio>
#include <memory>

#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/pim/pim_engine.h"
#include "src/readsim/read_simulator.h"
#include "src/util/table.h"

int main() {
  using pim::util::TextTable;

  constexpr std::size_t kGenome = 1 << 20;  // 1 Mbp scaled stand-in for Hg19
  constexpr std::size_t kReads = 1500;
  constexpr std::uint32_t kReadLen = 100;

  std::printf("=== Alignment pipeline evaluation ===\n");
  std::printf("reference: %zu bp synthetic (Hg19 stand-in, see DESIGN.md), "
              "%zu reads x %u bp\n",
              kGenome, kReads, kReadLen);
  std::printf("rates: population variation 0.1%%, sequencing error 0.2%% "
              "(paper Sec. VI)\n\n");

  pim::genome::SyntheticGenomeSpec gspec;
  gspec.length = kGenome;
  gspec.seed = 2026;
  const auto reference = pim::genome::generate_reference(gspec);
  const auto fm =
      pim::index::FmIndex::build(reference, {.bucket_width = 128});

  pim::readsim::ReadSimSpec rspec;
  rspec.read_length = kReadLen;
  rspec.num_reads = kReads;
  rspec.population_variation_rate = 0.001;
  rspec.sequencing_error_rate = 0.002;
  rspec.seed = 7;
  const auto set = pim::readsim::ReadSimulator(rspec).generate(reference);
  std::printf("generated exact-read fraction: %.1f%% "
              "(paper: 'up to ~70%% ... exactly aligned')\n",
              set.exact_fraction() * 100.0);

  pim::align::ReadBatchBuilder builder;
  builder.reserve(set.reads.size(), set.reads.size() * kReadLen);
  for (const auto& r : set.reads) builder.add(r.bases);
  const auto batch = builder.build();

  pim::hw::TimingEnergyModel timing;
  pim::hw::PimAlignerPlatform platform(fm, timing);
  pim::align::AlignerOptions options;
  options.inexact.max_diffs = 2;  // the paper considers <= 2 mismatches
  const pim::hw::PimEngine engine(platform, options);
  pim::align::BatchResult hw_results;
  const auto report = engine.run(batch, hw_results);
  const pim::align::EngineStats& outcomes = hw_results.stats();

  TextTable out({"metric", "value"});
  out.add_row({"reads total", std::to_string(outcomes.reads_total)});
  out.add_row({"stage-1 exact", std::to_string(outcomes.reads_exact)});
  out.add_row({"stage-2 inexact", std::to_string(outcomes.reads_inexact)});
  out.add_row({"unaligned", std::to_string(outcomes.reads_unaligned)});
  out.add_row({"exact fraction",
               TextTable::num(outcomes.exact_fraction() * 100.0) + " %"});
  out.add_row({"LFM calls", std::to_string(report.hardware.lfm_calls)});
  out.add_row(
      {"LFM calls / read",
       TextTable::num(static_cast<double>(report.hardware.lfm_calls) /
                      static_cast<double>(outcomes.reads_total))});
  out.add_row({"triple senses",
               std::to_string(report.hardware.ops.triple_senses)});
  out.add_row({"row writes", std::to_string(report.hardware.ops.writes)});
  out.add_row({"row reads", std::to_string(report.hardware.ops.reads)});
  out.add_row({"SA MEM reads", std::to_string(report.hardware.sa_mem_reads)});
  out.add_row({"sub-array energy (uJ)",
               TextTable::num(report.energy_pj * 1e-6)});
  out.add_row({"energy / read (nJ)",
               TextTable::num(report.energy_pj * 1e-3 /
                              static_cast<double>(outcomes.reads_total))});
  std::printf("%s", out.render().c_str());

  // Ground-truth origin recovery, via the software engine over the same
  // batch (bit-identical to the hardware results by construction).
  std::size_t recovered = 0, aligned = 0;
  const pim::align::SoftwareEngine software(fm, options);
  pim::align::BatchResult sw_results;
  software.align_batch(batch, sw_results);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!sw_results.aligned(i)) continue;
    ++aligned;
    for (const auto& hit : sw_results.hits(i)) {
      if (hit.position == set.reads[i].origin) {
        ++recovered;
        break;
      }
    }
  }
  std::printf("\norigin recovery: %zu/%zu aligned reads report their true "
              "origin (%.1f%%)\n",
              recovered, aligned,
              aligned ? 100.0 * static_cast<double>(recovered) /
                            static_cast<double>(aligned)
                      : 0.0);
  return 0;
}
