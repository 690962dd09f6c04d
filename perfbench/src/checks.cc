#include "checks.h"

#include <cmath>
#include <cstdio>

#include "server/protocol.h"

namespace perfbench {

using namespace explainit;

bool SameRanking(const core::ScoreTable& want, const core::ScoreTable& got,
                 std::string* why) {
  if (want.rows.size() != got.rows.size()) {
    *why = "row count " + std::to_string(got.rows.size()) + " != " +
           std::to_string(want.rows.size());
    return false;
  }
  for (size_t i = 0; i < want.rows.size(); ++i) {
    const core::ScoredHypothesis& a = want.rows[i];
    const core::ScoredHypothesis& b = got.rows[i];
    const double tol = 1e-9 * (1.0 + std::abs(a.score));
    if (a.family_name != b.family_name || std::abs(a.score - b.score) > tol ||
        a.num_features != b.num_features) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "rank %zu: got %s score %.17g, want %s score %.17g",
                    i + 1, b.family_name.c_str(), b.score,
                    a.family_name.c_str(), a.score);
      *why = buf;
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> CanonicalTableBytes(const table::Table& t) {
  table::Table out(t.schema());
  const auto seconds_col = t.schema().FieldIndex("score_seconds");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<table::Value> row = t.Row(r);
    if (seconds_col.has_value()) {
      row[*seconds_col] = table::Value::Double(0.0);
    }
    out.AppendRow(std::move(row));
  }
  server::ByteWriter w;
  server::EncodeTable(out, &w);
  return w.Take();
}

bool ReplyMatches(const table::Table& reply, const std::vector<uint8_t>& want) {
  return CanonicalTableBytes(reply) == want;
}

size_t CompareHistoryRun(const table::Table& history, int64_t run,
                         const table::Table& oneshot) {
  size_t failures = 0;
  size_t row = 0;
  for (size_t r = 0; r < history.num_rows(); ++r) {
    if (history.At(r, 0).AsInt() != run) continue;
    if (row >= oneshot.num_rows()) {
      ++failures;
      ++row;
      continue;
    }
    const bool equal =
        history.At(r, 2).AsInt() == oneshot.At(row, 0).AsInt() &&
        history.At(r, 3).AsString() == oneshot.At(row, 1).AsString() &&
        history.At(r, 4).AsDouble() == oneshot.At(row, 2).AsDouble() &&
        history.At(r, 5).AsInt() == oneshot.At(row, 3).AsInt() &&
        history.At(r, 6).AsDouble() == oneshot.At(row, 4).AsDouble();
    if (!equal) ++failures;
    ++row;
  }
  if (row != oneshot.num_rows()) ++failures;
  return failures;
}

size_t RankOfPrefix(const core::ScoreTable& table, const std::string& prefix) {
  for (size_t i = 0; i < table.rows.size(); ++i) {
    if (table.rows[i].family_name.rfind(prefix, 0) == 0) return i + 1;
  }
  return 0;
}

}  // namespace perfbench
