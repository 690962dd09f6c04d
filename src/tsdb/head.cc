#include "tsdb/head.h"

#include <utility>

namespace explainit::tsdb {

Status SeriesHead::Append(EpochSeconds timestamp, double value) {
  return block_.Append(timestamp, value);
}

CompressedBlock SeriesHead::Take() {
  CompressedBlock out = std::move(block_);
  block_ = CompressedBlock{};
  return out;
}

void SeriesHead::Restore(CompressedBlock block) { block_ = std::move(block); }

}  // namespace explainit::tsdb
