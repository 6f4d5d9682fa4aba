// Test helpers for driving single reads through the engine path — the only
// way to align — where a test's subject is one read rather than a batch.
#pragma once

#include <vector>

#include "src/align/engine.h"
#include "src/align/paired.h"
#include "src/align/read_batch.h"
#include "src/genome/alphabet.h"

namespace pim::test_util {

/// Align `read` as a one-read batch and return its owned result.
inline align::AlignmentResult align_read(
    const align::AlignmentEngine& engine,
    const std::vector<genome::Base>& read) {
  align::BatchResult out;
  engine.align_batch(align::ReadBatch::from_reads({read}), out);
  return out.result(0);
}

/// Align one mate pair as a one-pair batch.
inline align::PairedResult align_pair(
    const align::PairedAligner& aligner,
    const std::vector<genome::Base>& read1,
    const std::vector<genome::Base>& read2) {
  return aligner
      .align_pairs(align::ReadBatch::from_reads({read1}),
                   align::ReadBatch::from_reads({read2}))
      .front();
}

}  // namespace pim::test_util
