// Output checks. Every workload gates its results on these before any
// timing counts, and the self-test proves each one rejects a perturbed
// input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ranking.h"
#include "table/table.h"

namespace perfbench {

/// Same families in the same order with scores within 1e-9 relative and
/// equal feature counts (the EXPLAIN bench's ranking parity). On mismatch
/// `why` names the first differing row.
bool SameRanking(const explainit::core::ScoreTable& want,
                 const explainit::core::ScoreTable& got, std::string* why);

/// The wire encoding of a result table with the Score Table's wall-time
/// column (score_seconds) zeroed: a reply must match a direct
/// Engine::Query byte for byte after this canonicalisation.
std::vector<uint8_t> CanonicalTableBytes(const explainit::table::Table& t);

/// True when a reply's table canonicalises to exactly `want`.
bool ReplyMatches(const explainit::table::Table& reply,
                  const std::vector<uint8_t>& want);

/// Compares run `run` of a monitor's score history against a one-shot
/// EXPLAIN's result table: rank, family, score, num_features and
/// best_lambda must be equal. Returns the number of mismatching rows
/// (a missing or extra row counts once).
size_t CompareHistoryRun(const explainit::table::Table& history, int64_t run,
                         const explainit::table::Table& oneshot);

/// 1-based rank of the first family whose name starts with `prefix`, or
/// 0 when none does.
size_t RankOfPrefix(const explainit::core::ScoreTable& table,
                    const std::string& prefix);

}  // namespace perfbench
