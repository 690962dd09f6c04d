// The mutable head of one series: the small, append-optimised front of
// the tiered store. All access is synchronised externally by the owning
// stripe's mutex (SeriesStore); the head itself is plain data — an
// in-progress Gorilla encoder whose point and byte counts feed the
// sealer's size thresholds. Scans snapshot the head by copying its (bounded)
// block under the stripe lock and decode the copy lock-free.
#pragma once

#include "common/result.h"
#include "common/time_util.h"
#include "tsdb/compression.h"

namespace explainit::tsdb {

class SeriesHead {
 public:
  /// Appends one observation (timestamps non-decreasing per series).
  Status Append(EpochSeconds timestamp, double value);

  bool empty() const { return block_.num_points() == 0; }
  size_t num_points() const { return block_.num_points(); }
  size_t byte_size() const { return block_.byte_size(); }

  /// The in-progress block (copy it under the stripe lock to snapshot).
  const CompressedBlock& block() const { return block_; }

  /// Moves the block out and resets the head (the seal handoff).
  CompressedBlock Take();

  /// Replaces the head's block (snapshot reload; encoder state included
  /// in the serialized block, so appends continue seamlessly).
  void Restore(CompressedBlock block);

 private:
  CompressedBlock block_;
};

}  // namespace explainit::tsdb
