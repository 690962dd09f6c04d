// Fuzz round-trip harness for the SQL front end.
//
// Part 1 — printer/parser fixpoint: a deterministic-seed random AST
// generator builds statements level-by-level along the parser's
// precedence grammar (so the printed text is unambiguous), prints them
// with ToSql(), parses the text back, and asserts the reparse prints to
// the *same* text. Catches printer/parser drift (precedence, keywords,
// negation forms) without hand-written goldens.
//
// Part 2 — execution smoke: random generated queries over a small
// fixture run through the pipeline at parallelism 1 and N. Errors are
// fine (the generator does not type-check); crashes, sanitizer findings,
// ok-ness divergence or result divergence between parallelism levels are
// failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/ast.h"
#include "tests/sql/ast_generator.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "tsdb/store.h"

namespace explainit::sql {
namespace {

using table::DataType;
using table::Value;

TEST(FuzzRoundtripTest, PrinterParserFixpoint) {
  AstGenerator gen(0xE7541A);
  for (int i = 0; i < 400; ++i) {
    const auto stmt = gen.Statement(/*depth=*/3);
    const std::string sql = ToSql(*stmt);
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " + sql);
    auto reparsed = Parse(sql);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(ToSql(**reparsed), sql);
  }
}

TEST(FuzzRoundtripTest, ExpressionPrinterFixpoint) {
  AstGenerator gen(0xBADA55);
  // Statements double as expression factories via their WHERE clauses.
  for (int i = 0; i < 200; ++i) {
    const auto stmt = gen.Statement(/*depth=*/2);
    if (stmt->where == nullptr) continue;
    const std::string text = stmt->where->ToString();
    SCOPED_TRACE(text);
    auto reparsed = ParseExpression(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ((*reparsed)->ToString(), text);
  }
}

TEST(FuzzRoundtripTest, ExplainPrinterParserFixpoint) {
  AstGenerator gen(0xEC9A1B);
  for (int i = 0; i < 400; ++i) {
    const auto stmt = gen.Explain(/*depth=*/2);
    const std::string sql = ToSql(*stmt);
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " + sql);
    auto reparsed = ParseStatement(sql);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(ToSql(**reparsed), sql);
  }
}

// ---------------------------------------------------------------------------
// Execution smoke over a small fixture
// ---------------------------------------------------------------------------

table::Table FixtureT0() {
  table::Table t(table::Schema{{{"a", DataType::kInt64},
                                {"b", DataType::kDouble},
                                {"c", DataType::kString},
                                {"m", DataType::kMap}}});
  for (int i = 0; i < 24; ++i) {
    table::ValueMap m;
    m["k"] = Value::String(i % 2 == 0 ? "even" : "odd");
    t.AppendRow({Value::Int(i), Value::Double(i * 0.5),
                 Value::String(i % 3 == 0 ? "cpu" : "mem"),
                 Value::Map(std::move(m))});
  }
  return t;
}

table::Table FixtureT1() {
  table::Table t(table::Schema{{{"a", DataType::kInt64},
                                {"d", DataType::kDouble}}});
  for (int i = 0; i < 9; ++i) {
    t.AppendRow({Value::Int(i * 2), i % 3 == 0 ? Value::Null()
                                               : Value::Double(i * 1.5)});
  }
  return t;
}

TEST(FuzzRoundtripTest, RandomQueryExecutionSmoke) {
  Catalog catalog;
  catalog.RegisterTable("t0", FixtureT0());
  catalog.RegisterTable("t1", FixtureT1());
  FunctionRegistry functions = FunctionRegistry::Builtins();
  Executor serial(&catalog, &functions, 1);
  Executor parallel(&catalog, &functions, 4);

  AstGenerator gen(0x5EED);
  int executed = 0;
  for (int i = 0; i < 500; ++i) {
    const auto stmt = gen.Statement(/*depth=*/2);
    const std::string sql = ToSql(*stmt);
    SCOPED_TRACE(sql);
    auto r1 = serial.Query(sql);
    auto rN = parallel.Query(sql);
    // The generator does not type-check, so errors are expected — but
    // ok-ness must not depend on the parallelism level.
    ASSERT_EQ(r1.ok(), rN.ok())
        << (r1.ok() ? rN.status().ToString() : r1.status().ToString());
    if (!r1.ok()) continue;
    ++executed;
    ASSERT_EQ(r1->num_rows(), rN->num_rows());
    ASSERT_EQ(r1->num_columns(), rN->num_columns());
    // Sorted multiset comparison with float tolerance (partial
    // aggregation may re-associate sums).
    auto rows_of = [](const table::Table& t) {
      std::vector<std::vector<Value>> rows;
      for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.Row(r));
      std::stable_sort(rows.begin(), rows.end(),
                       [](const auto& a, const auto& b) {
                         for (size_t c = 0; c < a.size(); ++c) {
                           const int cmp = a[c].Compare(b[c]);
                           if (cmp != 0) return cmp < 0;
                         }
                         return false;
                       });
      return rows;
    };
    const auto rows1 = rows_of(*r1);
    const auto rowsN = rows_of(*rN);
    for (size_t r = 0; r < rows1.size(); ++r) {
      for (size_t c = 0; c < rows1[r].size(); ++c) {
        const Value& x = rows1[r][c];
        const Value& y = rowsN[r][c];
        if (x.is_null() || y.is_null()) {
          EXPECT_EQ(x.is_null(), y.is_null()) << r << "," << c;
          continue;
        }
        const bool num =
            x.type() == DataType::kDouble || x.type() == DataType::kInt64;
        if (num) {
          const double a = x.AsDouble();
          const double b = y.AsDouble();
          if (std::isnan(a) || std::isnan(b)) {
            EXPECT_EQ(std::isnan(a), std::isnan(b)) << r << "," << c;
          } else {
            EXPECT_LE(std::abs(a - b),
                      1e-9 * std::max(1.0, std::max(std::abs(a),
                                                    std::abs(b))))
                << r << "," << c;
          }
        } else {
          EXPECT_EQ(x.ToString(), y.ToString()) << r << "," << c;
        }
      }
    }
  }
  // The fixture is permissive enough that a healthy share of random
  // queries actually executes; guard against the smoke degenerating into
  // parse-error-only coverage.
  EXPECT_GE(executed, 20);
}

// ---------------------------------------------------------------------------
// Join/sort fuzz: random LEFT / FULL OUTER / INNER joins with ORDER BY
// (+ optional LIMIT) whose keys cover every selected column, so the
// result is a well-defined row *sequence*. The partitioned join, the
// sharded sort and the parallel materialisation must reproduce it
// byte-identically at parallelism 1 and 4 — exact ordered equality, no
// tolerance (the queries avoid re-associating aggregates).
// ---------------------------------------------------------------------------

TEST(FuzzRoundtripTest, OuterJoinOrderBySmokeByteIdentical) {
  Catalog catalog;
  catalog.RegisterTable("t0", FixtureT0());
  catalog.RegisterTable("t1", FixtureT1());
  FunctionRegistry functions = FunctionRegistry::Builtins();
  Executor serial(&catalog, &functions, 1);
  Executor parallel(&catalog, &functions, 4);

  static const char* const kJoins[] = {"JOIN", "LEFT JOIN",
                                       "FULL OUTER JOIN"};
  std::mt19937_64 rng(0x0C7A9E);
  for (int i = 0; i < 120; ++i) {
    const char* join = kJoins[rng() % 3];
    const bool asc1 = rng() % 2 == 0;
    const bool asc2 = rng() % 2 == 0;
    const bool residual = rng() % 3 == 0;  // extra non-equi conjunct
    std::string sql = std::string("SELECT t0.a AS x, t1.d AS y FROM t0 ") +
                      join + " t1 ON t0.a = t1.a";
    if (residual) sql += " AND t0.b < t1.d + 10";
    sql += std::string(" ORDER BY x") + (asc1 ? "" : " DESC") + ", y" +
           (asc2 ? "" : " DESC");
    if (rng() % 2 == 0) sql += " LIMIT " + std::to_string(1 + rng() % 12);
    SCOPED_TRACE(sql);
    auto r1 = serial.Query(sql);
    auto rN = parallel.Query(sql);
    ASSERT_EQ(r1.ok(), rN.ok())
        << (r1.ok() ? rN.status().ToString() : r1.status().ToString());
    if (!r1.ok()) continue;
    ASSERT_EQ(r1->num_rows(), rN->num_rows());
    ASSERT_EQ(r1->num_columns(), rN->num_columns());
    for (size_t r = 0; r < r1->num_rows(); ++r) {
      for (size_t c = 0; c < r1->num_columns(); ++c) {
        const Value& a = r1->At(r, c);
        const Value& b = rN->At(r, c);
        const bool same =
            a.is_null() || b.is_null() ? a.is_null() == b.is_null()
                                       : a.Equals(b);
        ASSERT_TRUE(same) << "row " << r << " col " << c << ": "
                          << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN execution smoke: random statements assembled from a pool of
// type-correct sub-selects over a tiny tsdb world, executed through
// Engine::Query at parallelism 1 and 4. Errors are fine (not every
// combination forms families); crashes, ok-ness divergence, or ranking
// divergence between parallelism levels are failures.
// ---------------------------------------------------------------------------

TEST(FuzzRoundtripTest, ExplainExecutionSmokeAcrossParallelism) {
  auto store = std::make_shared<tsdb::SeriesStore>();
  const TimeRange range{0, 48 * 60};
  for (int h = 0; h < 6; ++h) {
    for (const char* metric : {"latency", "load"}) {
      const tsdb::TagSet tags{{"host", "h" + std::to_string(h)}};
      for (int i = 0; i < 48; ++i) {
        const double v =
            (metric[0] == 'l' && metric[1] == 'a')
                ? 10.0 + h + 3.0 * ((i * 13 + h * 7) % 5)
                : 5.0 + 0.5 * ((i * 11 + h * 3) % 7);
        ASSERT_TRUE(store->Write(metric, tags, i * 60, v).ok());
      }
    }
  }
  core::EngineOptions serial_opt;
  serial_opt.sql_parallelism = 1;
  core::EngineOptions parallel_opt;
  parallel_opt.sql_parallelism = 4;
  core::Engine serial(store, serial_opt);
  core::Engine parallel(store, parallel_opt);
  serial.RegisterStoreTable("tsdb", range);
  parallel.RegisterStoreTable("tsdb", range);

  static const char* const kTargets[] = {
      "SELECT timestamp, AVG(value) AS y FROM tsdb "
      "WHERE metric_name = 'latency' GROUP BY timestamp",
      "SELECT timestamp, MAX(value) AS y FROM tsdb "
      "WHERE metric_name = 'latency' AND timestamp BETWEEN 0 AND 2400 "
      "GROUP BY timestamp",
      "SELECT COUNT(*) AS n FROM tsdb",  // no families: must error cleanly
  };
  static const char* const kGivens[] = {
      "",  // marginal
      "GIVEN (SELECT timestamp, AVG(value) AS z FROM tsdb "
      "WHERE metric_name = 'load' GROUP BY timestamp) ",
      "GIVEN PSEUDOCAUSE ",
  };
  static const char* const kSpaces[] = {
      "SELECT timestamp, CONCAT('h-', tag['host']) AS family, "
      "AVG(value) AS v FROM tsdb WHERE metric_name = 'load' "
      "GROUP BY timestamp, CONCAT('h-', tag['host'])",
      "SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "GROUP BY timestamp, metric_name",
  };
  static const char* const kScorers[] = {"CorrMax", "CorrMean", "L2"};

  std::mt19937_64 rng(0x5C0FE);
  int executed = 0;
  for (int i = 0; i < 40; ++i) {
    // One named draw per clause: chained operator+ operands are
    // unsequenced, so inline rng() calls would make the corpus
    // compiler-dependent despite the fixed seed.
    const char* target = kTargets[rng() % 3];
    const char* given = kGivens[rng() % 3];
    const char* space = kSpaces[rng() % 2];
    const char* scorer = kScorers[rng() % 3];
    std::string stmt = std::string("EXPLAIN (") + target + ") " + given +
                       "USING (" + space + ")";
    stmt += std::string(" SCORE BY '") + scorer + "'";
    if (rng() % 2 == 0) stmt += " TOP " + std::to_string(1 + rng() % 8);
    if (rng() % 2 == 0) stmt += " BETWEEN 600 AND 1800";
    SCOPED_TRACE(stmt);
    auto r1 = serial.Query(stmt);
    auto rN = parallel.Query(stmt);
    ASSERT_EQ(r1.ok(), rN.ok())
        << (r1.ok() ? rN.status().ToString() : r1.status().ToString());
    if (!r1.ok()) continue;
    ++executed;
    ASSERT_TRUE(r1->score_table.has_value());
    ASSERT_TRUE(rN->score_table.has_value());
    const auto& rows1 = r1->score_table->rows;
    const auto& rowsN = rN->score_table->rows;
    ASSERT_EQ(rows1.size(), rowsN.size());
    for (size_t r = 0; r < rows1.size(); ++r) {
      EXPECT_EQ(rows1[r].family_name, rowsN[r].family_name) << "rank " << r;
      EXPECT_NEAR(rows1[r].score, rowsN[r].score,
                  1e-9 * (1.0 + std::abs(rows1[r].score)))
          << "rank " << r;
    }
  }
  // A healthy share of combinations must actually rank.
  EXPECT_GE(executed, 15);
}

TEST(FuzzRoundtripTest, HostileNumericLiteralCorpus) {
  // Regression corpus for the untrusted-literal bugs: every entry once
  // crossed the parser as an uncaught std::out_of_range (stod) or a
  // silently-zero integer (unchecked from_chars). Parsing must return a
  // clean Status — ok or ParseError — and never throw.
  static const char* const kCorpus[] = {
      "SELECT 1e999",
      "SELECT -1e999",
      "SELECT 1e99999999999999999999",
      "SELECT 99999999999999999999",
      "SELECT -99999999999999999999",
      "SELECT 9223372036854775808",
      "SELECT 18446744073709551616",
      "SELECT 1.8e308 + 1",
      "SELECT * FROM t WHERE a = 99999999999999999999",
      "SELECT a FROM t LIMIT 99999999999999999999",
      "SELECT a FROM t WHERE ts BETWEEN 1e999 AND 2e999",
      "EXPLAIN SELECT v FROM t USING (SELECT v FROM ff) TOP "
      "99999999999999999999",
      // The legitimate edges must keep parsing.
      "SELECT 9223372036854775807",
      "SELECT 1e308",
      "SELECT 0.000001",
  };
  for (const char* sql : kCorpus) {
    SCOPED_TRACE(sql);
    Result<std::unique_ptr<Statement>> stmt = [&] {
      return ParseStatement(sql);
    }();  // any exception escaping Parse fails the test via gtest
    if (!stmt.ok()) {
      EXPECT_TRUE(stmt.status().IsParseError()) << stmt.status().ToString();
      // Every parse error names the offending position.
      EXPECT_NE(stmt.status().message().find("line "), std::string::npos)
          << stmt.status().message();
    }
  }
}

}  // namespace
}  // namespace explainit::sql
