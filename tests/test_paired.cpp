#include "src/align/paired.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/genome/synthetic_genome.h"
#include "src/readsim/paired_simulator.h"
#include "src/util/rng.h"
#include "tests/engine_test_util.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;
using test_util::align_pair;

struct Fixture {
  PackedSequence reference;
  index::FmIndex fm;
  explicit Fixture(std::size_t length = 100000, std::uint64_t seed = 11) {
    genome::SyntheticGenomeSpec spec;
    spec.length = length;
    spec.seed = seed;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
  }
};

// --- Paired simulator ---------------------------------------------------------

TEST(PairedSimulator, GeneratesFrPairs) {
  Fixture f;
  readsim::PairedReadSimSpec spec;
  spec.base.read_length = 100;
  spec.base.num_reads = 100;
  spec.base.population_variation_rate = 0.0;
  spec.base.sequencing_error_rate = 0.0;
  spec.base.sample_both_strands = false;
  spec.base.seed = 5;
  const auto set = readsim::PairedReadSimulator(spec).generate(f.reference);
  ASSERT_EQ(set.pairs.size(), 100U);
  for (const auto& pair : set.pairs) {
    EXPECT_GE(pair.insert_size, 200U);
    EXPECT_LE(pair.insert_size, 420U);
    // Error-free forward-fragment pairs reproduce the reference exactly.
    EXPECT_FALSE(pair.read1.reverse_strand);
    EXPECT_TRUE(pair.read2.reverse_strand);
    EXPECT_EQ(pair.read1.bases,
              f.reference.slice(pair.read1.origin, pair.read1.origin + 100));
    EXPECT_EQ(pair.read2.bases,
              genome::reverse_complement(f.reference.slice(
                  pair.read2.origin, pair.read2.origin + 100)));
    // Mates bracket the fragment.
    EXPECT_EQ(pair.read1.origin, pair.fragment_start);
    EXPECT_EQ(pair.read2.origin + 100,
              pair.fragment_start + pair.insert_size);
  }
}

TEST(PairedSimulator, InsertDistributionCentred) {
  Fixture f;
  readsim::PairedReadSimSpec spec;
  spec.base.read_length = 80;
  spec.base.num_reads = 800;
  spec.base.seed = 7;
  spec.insert_mean = 320;
  spec.insert_sd = 25;
  const auto set = readsim::PairedReadSimulator(spec).generate(f.reference);
  double sum = 0.0;
  for (const auto& pair : set.pairs) sum += pair.insert_size;
  EXPECT_NEAR(sum / 800.0, 320.0, 5.0);
}

TEST(PairedSimulator, RejectsInfeasibleSpecs) {
  Fixture f(2000, 2);
  readsim::PairedReadSimSpec tight;
  tight.base.read_length = 200;
  tight.insert_mean = 300;  // < 2 reads
  EXPECT_THROW(readsim::PairedReadSimulator(tight).generate(f.reference),
               std::invalid_argument);
  readsim::PairedReadSimSpec huge;
  huge.base.read_length = 100;
  huge.insert_mean = 3000;
  EXPECT_THROW(readsim::PairedReadSimulator(huge).generate(
                   genome::generate_uniform(1000, 1)),
               std::invalid_argument);
}

TEST(PairedSimulator, QualitiesEmitted) {
  Fixture f;
  readsim::PairedReadSimSpec spec;
  spec.base.read_length = 50;
  spec.base.num_reads = 10;
  spec.base.emit_qualities = true;
  const auto set = readsim::PairedReadSimulator(spec).generate(f.reference);
  for (const auto& pair : set.pairs) {
    EXPECT_EQ(pair.read1.qualities.size(), 50U);
    EXPECT_EQ(pair.read2.qualities.size(), 50U);
  }
}

// --- Paired aligner ------------------------------------------------------------

TEST(PairedAligner, ProperPairsRecovered) {
  Fixture f;
  readsim::PairedReadSimSpec spec;
  spec.base.read_length = 100;
  spec.base.num_reads = 60;
  spec.base.population_variation_rate = 0.001;
  spec.base.sequencing_error_rate = 0.002;
  spec.base.seed = 13;
  const auto set = readsim::PairedReadSimulator(spec).generate(f.reference);

  PairedOptions options;
  options.single.inexact.max_diffs = 2;
  options.insert_mean = 300;
  options.insert_sd = 30;
  const PairedAligner aligner(f.fm, options);

  std::size_t proper = 0, origin_ok = 0;
  for (const auto& pair : set.pairs) {
    const auto result =
        align_pair(aligner, pair.read1.bases, pair.read2.bases);
    if (result.cls != PairClass::kProperPair) continue;
    ++proper;
    ASSERT_TRUE(result.pair.has_value());
    const auto& pp = *result.pair;
    if (pp.first.position == pair.read1.origin &&
        pp.second.position == pair.read2.origin) {
      ++origin_ok;
    }
    // Insert within the configured window.
    EXPECT_GE(pp.observed_insert, 180U);
    EXPECT_LE(pp.observed_insert, 420U);
  }
  EXPECT_GT(proper, 50U);            // nearly all pairs are proper
  EXPECT_GE(origin_ok, proper - 3);  // and anchored at the truth
}

TEST(PairedAligner, WrongDistancePairIsDiscordant) {
  Fixture f;
  PairedOptions options;
  options.insert_mean = 300;
  options.insert_sd = 10;
  options.max_insert_deviations = 3.0;
  options.single.inexact.max_diffs = 0;
  const PairedAligner aligner(f.fm, options);
  // Mates 5 kb apart: both align, no proper pairing.
  const auto r1 = f.reference.slice(10000, 10100);
  const auto r2 =
      genome::reverse_complement(f.reference.slice(15000, 15100));
  const auto result = align_pair(aligner, r1, r2);
  EXPECT_EQ(result.cls, PairClass::kDiscordant);
  EXPECT_FALSE(result.pair.has_value());
}

TEST(PairedAligner, SameStrandPairIsDiscordant) {
  Fixture f;
  PairedOptions options;
  options.single.inexact.max_diffs = 0;
  options.single.try_reverse_complement = false;
  const PairedAligner aligner(f.fm, options);
  const auto r1 = f.reference.slice(20000, 20100);
  const auto r2 = f.reference.slice(20200, 20300);  // forward, not revcomp
  const auto result = align_pair(aligner, r1, r2);
  EXPECT_EQ(result.cls, PairClass::kDiscordant);
}

TEST(PairedAligner, OneMateClass) {
  Fixture f;
  PairedOptions options;
  options.single.inexact.max_diffs = 0;
  const PairedAligner aligner(f.fm, options);
  const auto r1 = f.reference.slice(30000, 30100);
  // Mate 2: random garbage that cannot align exactly.
  util::Xoshiro256 rng(3);
  std::vector<Base> junk;
  for (int i = 0; i < 100; ++i) junk.push_back(static_cast<Base>(rng.bounded(4)));
  const auto result = align_pair(aligner, r1, junk);
  EXPECT_EQ(result.cls, PairClass::kOneMate);
  EXPECT_TRUE(result.mate1.aligned());
  EXPECT_FALSE(result.mate2.aligned());
}

TEST(PairedAligner, NeitherClass) {
  Fixture f;
  PairedOptions options;
  options.single.inexact.max_diffs = 0;
  const PairedAligner aligner(f.fm, options);
  util::Xoshiro256 rng(4);
  std::vector<Base> junk1, junk2;
  for (int i = 0; i < 100; ++i) {
    junk1.push_back(static_cast<Base>(rng.bounded(4)));
    junk2.push_back(static_cast<Base>(rng.bounded(4)));
  }
  EXPECT_EQ(align_pair(aligner, junk1, junk2).cls, PairClass::kNeither);
}

TEST(PairedAligner, InsertConstraintDisambiguatesRepeats) {
  // Plant the same 100-bp block at two loci; mate 2 is unique. Alone, mate 1
  // is ambiguous (two exact hits); the insert constraint picks the copy
  // that pairs with mate 2.
  genome::SyntheticGenomeSpec spec;
  spec.length = 50000;
  spec.seed = 19;
  spec.repeat_fraction = 0.0;
  auto reference = genome::generate_reference(spec);
  for (std::size_t k = 0; k < 100; ++k) {
    reference.set(40000 + k, reference.at(5000 + k));  // duplicate the block
  }
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});
  PairedOptions options;
  options.single.inexact.max_diffs = 0;
  options.insert_mean = 300;
  options.insert_sd = 30;
  const PairedAligner aligner(fm, options);

  const auto mate1 = reference.slice(5000, 5100);  // ambiguous block
  const auto mate2 =
      genome::reverse_complement(reference.slice(5200, 5300));  // unique
  const auto single = align_pair(aligner, mate1, mate2);
  ASSERT_EQ(single.cls, PairClass::kProperPair);
  EXPECT_EQ(single.pair->first.position, 5000U);  // not the 40000 copy
  EXPECT_GT(single.mate1.hits.size(), 1U);        // it *was* ambiguous
}

}  // namespace
}  // namespace pim::align
