#include "src/genome/multi_reference.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/align/multi_aligner.h"
#include "src/genome/synthetic_genome.h"

namespace pim::genome {
namespace {

MultiReference three_chromosomes() {
  std::vector<std::pair<std::string, PackedSequence>> parts;
  parts.emplace_back("chr1", generate_uniform(1000, 1));
  parts.emplace_back("chr2", generate_uniform(500, 2));
  parts.emplace_back("chr3", generate_uniform(1500, 3));
  return MultiReference::from_parts(std::move(parts));
}

TEST(MultiReference, ConcatenationLayout) {
  const auto ref = three_chromosomes();
  EXPECT_EQ(ref.total_length(), 3000U);
  ASSERT_EQ(ref.chromosomes().size(), 3U);
  EXPECT_EQ(ref.chromosomes()[0].offset, 0U);
  EXPECT_EQ(ref.chromosomes()[1].offset, 1000U);
  EXPECT_EQ(ref.chromosomes()[2].offset, 1500U);
  EXPECT_EQ(ref.chromosomes()[2].length, 1500U);
}

TEST(MultiReference, ConcatenationContentMatchesParts) {
  const auto chr2 = generate_uniform(500, 2);
  const auto ref = three_chromosomes();
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(ref.concatenated().at(1000 + i), chr2.at(i));
  }
}

TEST(MultiReference, LocateMapsBoundariesCorrectly) {
  const auto ref = three_chromosomes();
  EXPECT_EQ(ref.locate(0), (ChromosomeLocation{0, 0}));
  EXPECT_EQ(ref.locate(999), (ChromosomeLocation{0, 999}));
  EXPECT_EQ(ref.locate(1000), (ChromosomeLocation{1, 0}));
  EXPECT_EQ(ref.locate(1499), (ChromosomeLocation{1, 499}));
  EXPECT_EQ(ref.locate(1500), (ChromosomeLocation{2, 0}));
  EXPECT_EQ(ref.locate(2999), (ChromosomeLocation{2, 1499}));
  EXPECT_FALSE(ref.locate(3000).has_value());
}

TEST(MultiReference, SpansBoundary) {
  const auto ref = three_chromosomes();
  EXPECT_FALSE(ref.spans_boundary(0, 1000));
  EXPECT_TRUE(ref.spans_boundary(999, 2));
  EXPECT_FALSE(ref.spans_boundary(999, 1));
  EXPECT_TRUE(ref.spans_boundary(1400, 200));
  EXPECT_FALSE(ref.spans_boundary(1500, 1500));
  EXPECT_TRUE(ref.spans_boundary(2999, 2));  // off the end
  EXPECT_FALSE(ref.spans_boundary(100, 0));
}

TEST(MultiReference, NameLookupAndToGlobal) {
  const auto ref = three_chromosomes();
  EXPECT_EQ(ref.chromosome_index("chr2"), 1U);
  EXPECT_FALSE(ref.chromosome_index("chrX").has_value());
  EXPECT_EQ(ref.to_global({1, 10}), 1010U);
  EXPECT_THROW(ref.to_global({5, 0}), std::out_of_range);
  EXPECT_THROW(ref.to_global({1, 500}), std::out_of_range);
}

TEST(MultiReference, FromFastaTruncatesNames) {
  std::vector<FastaRecord> records;
  records.push_back({"chr1 homo sapiens", PackedSequence("ACGT"), 0});
  records.push_back({"chr2", PackedSequence("TTTT"), 0});
  const auto ref = MultiReference::from_fasta_records(records);
  EXPECT_EQ(ref.chromosomes()[0].name, "chr1");
  EXPECT_EQ(ref.chromosomes()[1].name, "chr2");
}

/// One read through SoftwareEngine, then MultiAligner's coordinate pass.
pim::align::MultiAlignmentResult map_read(
    const pim::align::MultiAligner& aligner, const pim::index::FmIndex& fm,
    const pim::align::AlignerOptions& options, const std::vector<Base>& read) {
  const pim::align::SoftwareEngine engine(fm, options);
  const auto batch = pim::align::ReadBatch::from_reads({read});
  pim::align::BatchResult raw;
  engine.align_batch(batch, raw);
  return aligner.map(batch, raw).front();
}

TEST(MultiAligner, HitsResolveToChromosomes) {
  const auto ref = three_chromosomes();
  const auto fm =
      pim::index::FmIndex::build(ref.concatenated(), {.bucket_width = 64});
  const pim::align::MultiAligner aligner(ref, fm);
  // A read planted inside chr2.
  const auto read = ref.concatenated().slice(1100, 1160);
  const auto result = map_read(aligner, fm, {}, read);
  ASSERT_TRUE(result.aligned());
  bool found = false;
  for (const auto& hit : result.hits) {
    if (hit.chromosome == 1 && hit.offset == 100) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MultiAligner, JunctionArtifactsFiltered) {
  // Build a reference whose junction creates an artificial match: chr1 ends
  // with the prefix of the probe, chr2 starts with its suffix.
  std::vector<std::pair<std::string, PackedSequence>> parts;
  parts.emplace_back("chrA", PackedSequence("ACGTACGTAAAACCCC"));
  parts.emplace_back("chrB", PackedSequence("GGGGTTTTACGTACGT"));
  const auto ref = MultiReference::from_parts(std::move(parts));
  const auto fm =
      pim::index::FmIndex::build(ref.concatenated(), {.bucket_width = 8});
  pim::align::AlignerOptions opt;
  opt.inexact.max_diffs = 0;
  opt.try_reverse_complement = false;
  const pim::align::MultiAligner aligner(ref, fm, opt);
  // "CCCCGGGG" exists only across the junction.
  const auto result = map_read(aligner, fm, opt, genome::encode("CCCCGGGG"));
  EXPECT_FALSE(result.aligned());
  EXPECT_GT(result.boundary_artifacts_dropped, 0U);
}

TEST(MultiAligner, MismatchedIndexRejected) {
  const auto ref = three_chromosomes();
  const auto other = generate_uniform(100, 9);
  const auto fm = pim::index::FmIndex::build(other, {.bucket_width = 64});
  EXPECT_THROW(pim::align::MultiAligner(ref, fm), std::invalid_argument);
}

TEST(MultiAligner, HitAtChromosomeEndNotDropped) {
  const auto ref = three_chromosomes();
  const auto fm =
      pim::index::FmIndex::build(ref.concatenated(), {.bucket_width = 64});
  pim::align::AlignerOptions opt;
  opt.inexact.max_diffs = 2;  // span = read + 2 would overrun chr3's end
  const pim::align::MultiAligner aligner(ref, fm, opt);
  const auto read = ref.concatenated().slice(2960, 3000);  // last 40 bp
  const auto result = map_read(aligner, fm, opt, read);
  ASSERT_TRUE(result.aligned());
  bool found = false;
  for (const auto& hit : result.hits) {
    if (hit.chromosome == 2 && hit.offset == 1460) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace pim::genome
