#include "src/align/parallel_aligner.h"

#include <gtest/gtest.h>

#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"

namespace pim::align {
namespace {

struct Fixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::vector<std::vector<genome::Base>> reads;

  Fixture() {
    genome::SyntheticGenomeSpec spec;
    spec.length = 50000;
    spec.seed = 8;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
    readsim::ReadSimSpec rspec;
    rspec.read_length = 80;
    rspec.num_reads = 200;
    rspec.seed = 9;
    const auto set = readsim::ReadSimulator(rspec).generate(reference);
    for (const auto& r : set.reads) reads.push_back(r.bases);
  }
};

TEST(ParallelAligner, ResultsIdenticalToSerial) {
  Fixture f;
  AlignerOptions opt;
  opt.inexact.max_diffs = 2;
  const SoftwareEngine engine(f.fm, opt);
  const auto batch = ReadBatch::from_reads(f.reads);
  BatchResult serial, parallel;
  engine.align_batch(batch, serial);
  align_batch_parallel(engine, batch, parallel, {.num_threads = 4});
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel.stage(i), serial.stage(i)) << i;
    ASSERT_EQ(parallel.hits(i).size(), serial.hits(i).size()) << i;
    for (std::size_t h = 0; h < serial.hits(i).size(); ++h) {
      EXPECT_EQ(parallel.hits(i)[h].position, serial.hits(i)[h].position);
      EXPECT_EQ(parallel.hits(i)[h].diffs, serial.hits(i)[h].diffs);
      EXPECT_EQ(parallel.hits(i)[h].strand, serial.hits(i)[h].strand);
    }
  }
  EXPECT_EQ(parallel.stats().reads_total, serial.stats().reads_total);
  EXPECT_EQ(parallel.stats().reads_exact, serial.stats().reads_exact);
  EXPECT_EQ(parallel.stats().reads_inexact, serial.stats().reads_inexact);
  EXPECT_EQ(parallel.stats().reads_unaligned, serial.stats().reads_unaligned);
}

TEST(ParallelAligner, SingleThreadWorks) {
  Fixture f;
  const SoftwareEngine engine(f.fm);
  BatchResult results;
  align_batch_parallel(engine, ReadBatch::from_reads(f.reads), results,
                       {.num_threads = 1});
  EXPECT_EQ(results.size(), f.reads.size());
}

TEST(ParallelAligner, MoreThreadsThanReads) {
  Fixture f;
  const SoftwareEngine engine(f.fm);
  std::vector<std::vector<genome::Base>> two(f.reads.begin(),
                                             f.reads.begin() + 2);
  BatchResult results;
  align_batch_parallel(engine, ReadBatch::from_reads(two), results,
                       {.num_threads = 16});
  EXPECT_EQ(results.size(), 2U);
}

TEST(ParallelAligner, EmptyBatch) {
  Fixture f;
  const SoftwareEngine engine(f.fm);
  BatchResult results;
  align_batch_parallel(engine, ReadBatch::from_reads({}), results,
                       {.num_threads = 4});
  EXPECT_EQ(results.size(), 0U);
  EXPECT_EQ(results.stats().reads_total, 0U);
}

TEST(ParallelAligner, DefaultThreadCount) {
  Fixture f;
  const SoftwareEngine engine(f.fm);
  BatchResult results;
  align_batch_parallel(engine, ReadBatch::from_reads(f.reads), results);
  EXPECT_EQ(results.size(), f.reads.size());
}

}  // namespace
}  // namespace pim::align
