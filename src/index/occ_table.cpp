#include "src/index/occ_table.h"

#include <stdexcept>

namespace pim::index {

CountTable::CountTable(const Bwt& bwt) {
  for (std::size_t i = 0; i < bwt.size(); ++i) {
    if (bwt.is_sentinel(i)) continue;
    ++occurrences_[static_cast<std::size_t>(bwt.symbols.at(i))];
  }
  std::uint64_t cumulative = 1;  // '$' precedes everything
  for (std::size_t a = 0; a < genome::kNumBases; ++a) {
    counts_[a] = cumulative;
    cumulative += occurrences_[a];
  }
}

OccTable::OccTable(const Bwt& bwt) {
  table_.resize(bwt.size() + 1);
  std::array<std::uint32_t, genome::kNumBases> running{};
  table_[0] = running;
  for (std::size_t i = 0; i < bwt.size(); ++i) {
    if (!bwt.is_sentinel(i)) {
      ++running[static_cast<std::size_t>(bwt.symbols.at(i))];
    }
    table_[i + 1] = running;
  }
}

SampledOccTable::SampledOccTable(const Bwt& bwt, std::uint32_t bucket_width)
    : d_(bucket_width) {
  if (bucket_width == 0) {
    throw std::invalid_argument("SampledOccTable: bucket width must be > 0");
  }
  const std::size_t num_checkpoints = bwt.size() / d_ + 1;
  auto& checkpoints = checkpoints_.vec();
  checkpoints.resize(num_checkpoints);
  OccCheckpoint running{};
  checkpoints[0] = running;
  for (std::size_t i = 0; i < bwt.size(); ++i) {
    if (!bwt.is_sentinel(i)) {
      ++running[static_cast<std::size_t>(bwt.symbols.at(i))];
    }
    if ((i + 1) % d_ == 0) {
      checkpoints[(i + 1) / d_] = running;
    }
  }
}

std::uint64_t SampledOccTable::count_match(const Bwt& bwt, genome::Base nt,
                                           std::size_t i) const {
  return residual_count(bwt, nt, i, d_);
}

std::uint64_t SampledOccTable::occ(const Bwt& bwt, genome::Base nt,
                                   std::size_t i) const {
  if (i > bwt.size()) throw std::out_of_range("SampledOccTable::occ");
  return checkpoint(nt, i / d_) + count_match(bwt, nt, i);
}

}  // namespace pim::index
