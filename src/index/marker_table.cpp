#include "src/index/marker_table.h"

#include <stdexcept>

namespace pim::index {

MarkerTable::MarkerTable(const Bwt& bwt, const CountTable& counts,
                         std::uint32_t bucket_width)
    : d_(bucket_width) {
  if (bucket_width == 0) {
    throw std::invalid_argument("MarkerTable: bucket width must be > 0");
  }
  const SampledOccTable sampled(bwt, bucket_width);
  auto& markers = markers_.vec();
  markers.resize(sampled.num_checkpoints());
  for (std::size_t k = 0; k < markers.size(); ++k) {
    for (const auto nt : genome::kAllBases) {
      const std::uint64_t value =
          counts.count(nt) + sampled.checkpoint(nt, k);
      markers[k][static_cast<std::size_t>(nt)] =
          static_cast<std::uint32_t>(value);
    }
  }
}

MarkerTable MarkerTable::from_parts(std::uint32_t bucket_width,
                                    util::Storage<OccCheckpoint> markers) {
  if (bucket_width == 0) {
    throw std::invalid_argument("MarkerTable: bucket width must be > 0");
  }
  MarkerTable table;
  table.d_ = bucket_width;
  table.markers_ = std::move(markers);
  return table;
}

std::uint64_t MarkerTable::lfm(const Bwt& bwt, genome::Base nt,
                               std::size_t id) const {
  if (id > bwt.size()) throw std::out_of_range("MarkerTable::lfm");
  return marker(nt, id / d_) + residual_count(bwt, nt, id, d_);
}

}  // namespace pim::index
