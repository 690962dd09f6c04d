// Operator-level regression tests for the parallel join/sort paths and
// the correctness holes they sit on:
//
//   * FULL OUTER / LEFT pads follow the *actual* build side. The planner
//     only swaps the build side when estimates favour it, so both
//     orientations are constructed directly here (the pre-fix code
//     hard-coded build = right and padded the wrong side under
//     build_left).
//   * FinishBuildPads reports eof directly when every build row matched
//     (the pre-fix code emitted an empty non-eof batch first).
//   * ORDER BY items resolve their evaluation side once: an item whose
//     primary side errors on only some rows must not mix key values
//     from two schemas (alias shadowing a pre-projection column).
//   * The partitioned join, sharded sort and parallel materialisation
//     produce byte-identical output at parallelism 1 vs 4, and record
//     their fan-out in ExecStats.
//   * LIMIT stops at the same row, and surfaces the same error, at
//     parallelism 1 vs 4: Filter and Project evaluate child batches in
//     rounds and defer a later batch's error to its position, so an
//     error past the LIMIT never surfaces at either level.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "sql/executor.h"
#include "sql/operators/hash_join.h"
#include "sql/operators/scan.h"
#include "sql/parser.h"
#include "tsdb/store.h"

namespace explainit::sql {
namespace {

using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();

    Table l(Schema{{{"k", DataType::kString}, {"a", DataType::kInt64}}});
    l.AppendRow({Value::String("one"), Value::Int(1)});
    l.AppendRow({Value::String("two"), Value::Int(2)});
    l.AppendRow({Value::String("three"), Value::Int(3)});
    catalog_.RegisterTable("l", std::move(l));

    Table r(Schema{{{"k", DataType::kString}, {"b", DataType::kInt64}}});
    r.AppendRow({Value::String("two"), Value::Int(20)});
    r.AppendRow({Value::String("four"), Value::Int(40)});
    catalog_.RegisterTable("r", std::move(r));
  }

  /// Builds `l <type> JOIN r ON l.k = r.k` directly so both build
  /// orientations are reachable (the planner only swaps on estimates).
  std::unique_ptr<HashJoinOperator> MakeJoin(JoinType type,
                                             bool build_left) {
    join_.type = type;
    auto cond = ParseExpression("l.k = r.k");
    EXPECT_TRUE(cond.ok());
    join_.condition = std::move(cond).value();
    auto left = std::make_unique<CatalogScanOperator>(
        &catalog_, "l", tsdb::ScanHints{}, "l", std::nullopt);
    auto right = std::make_unique<CatalogScanOperator>(
        &catalog_, "r", tsdb::ScanHints{}, "r", std::nullopt);
    return std::make_unique<HashJoinOperator>(
        std::move(left), std::move(right), &join_, &functions_, build_left,
        nullptr);
  }

  /// Drains `op`, asserting every non-eof batch carries rows (the eof
  /// fast-path regression), and returns the materialised result.
  Table DrainAll(Operator* op) {
    EXPECT_TRUE(op->Open().ok());
    Table out(op->output_schema());
    bool eof = false;
    while (true) {
      auto batch = op->Next(&eof);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok() || eof) break;
      EXPECT_GT(batch->num_rows(), 0u)
          << "empty non-eof batch (wasted Next round-trip)";
      batch->AppendTo(&out);
    }
    return out;
  }

  /// Text rendering of one row for order-insensitive comparison.
  static std::vector<std::string> RowStrings(const Table& t) {
    std::vector<std::string> rows;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::string s;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        s += t.At(r, c).is_null() ? "·" : t.At(r, c).ToString();
        s += "|";
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Catalog catalog_;
  FunctionRegistry functions_;
  JoinClause join_;
};

// The FULL OUTER row set is orientation-independent: matched (two),
// left-only (one, three) padded on the right columns, right-only (four)
// padded on the left columns.
const std::vector<std::string> kFullOuterRows = {
    "one|1|·|·|", "three|3|·|·|", "two|2|two|20|", "·|·|four|40|"};

TEST_F(OperatorsTest, FullOuterBuildRightPadsCorrectSides) {
  auto op = MakeJoin(JoinType::kFullOuter, /*build_left=*/false);
  Table out = DrainAll(op.get());
  EXPECT_EQ(RowStrings(out), kFullOuterRows);
}

TEST_F(OperatorsTest, FullOuterBuildLeftPadsCorrectSides) {
  // Pre-fix, FinishFullOuter hard-coded build = right: with build_left
  // the unmatched *left* build rows came out with their values on the
  // right columns and nulls on the left.
  auto op = MakeJoin(JoinType::kFullOuter, /*build_left=*/true);
  Table out = DrainAll(op.get());
  EXPECT_EQ(RowStrings(out), kFullOuterRows);
}

TEST_F(OperatorsTest, LeftJoinBuildLeftPadsUnmatchedLeftRows) {
  // LEFT JOIN built on the left side: unmatched build (= left) rows pad
  // after the probe; unmatched right rows are dropped.
  auto op = MakeJoin(JoinType::kLeft, /*build_left=*/true);
  Table out = DrainAll(op.get());
  const std::vector<std::string> want = {"one|1|·|·|", "three|3|·|·|",
                                         "two|2|two|20|"};
  EXPECT_EQ(RowStrings(out), want);
}

TEST_F(OperatorsTest, LeftJoinBuildRightMatchesSeedShape) {
  auto op = MakeJoin(JoinType::kLeft, /*build_left=*/false);
  Table out = DrainAll(op.get());
  const std::vector<std::string> want = {"one|1|·|·|", "three|3|·|·|",
                                         "two|2|two|20|"};
  EXPECT_EQ(RowStrings(out), want);
}

TEST_F(OperatorsTest, FullOuterAllBuildRowsMatchedReportsEofDirectly) {
  // A right table whose every row matches: zero build pads. DrainAll
  // asserts no empty non-eof batch is emitted on the way out (the
  // pre-fix code burned one Next round-trip on exactly that).
  Table r2(Schema{{{"k", DataType::kString}, {"b", DataType::kInt64}}});
  r2.AppendRow({Value::String("one"), Value::Int(10)});
  r2.AppendRow({Value::String("two"), Value::Int(20)});
  r2.AppendRow({Value::String("three"), Value::Int(30)});
  catalog_.RegisterTable("r", std::move(r2));
  for (const bool build_left : {false, true}) {
    auto op = MakeJoin(JoinType::kFullOuter, build_left);
    Table out = DrainAll(op.get());
    const std::vector<std::string> want = {
        "one|1|one|10|", "three|3|three|30|", "two|2|two|20|"};
    EXPECT_EQ(RowStrings(out), want) << "build_left=" << build_left;
  }
}

TEST_F(OperatorsTest, BuildPadsEmitInBatchSizedChunks) {
  // 3500 unmatched build rows must not materialise as one giant pad
  // batch: FinishBuildPads keeps a cursor and emits kDefaultBatchRows at
  // a time, like every other operator.
  constexpr size_t kBuildRows = 3500;
  Table l2(Schema{{{"k", DataType::kString}, {"a", DataType::kInt64}}});
  for (size_t i = 0; i < kBuildRows; ++i) {
    l2.AppendRow({Value::String("L" + std::to_string(i)),
                  Value::Int(static_cast<int64_t>(i))});
  }
  l2.AppendRow({Value::String("two"), Value::Int(-1)});  // the one match
  catalog_.RegisterTable("l", std::move(l2));

  auto op = MakeJoin(JoinType::kFullOuter, /*build_left=*/true);
  ASSERT_TRUE(op->Open().ok());
  size_t total = 0, pad_batches = 0, max_batch = 0;
  bool eof = false;
  while (true) {
    auto batch = op->Next(&eof);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (eof) break;
    ASSERT_GT(batch->num_rows(), 0u);
    max_batch = std::max(max_batch, batch->num_rows());
    // A pad batch carries nulls in the probe (right) columns.
    if (batch->At(0, 2).is_null()) {
      ++pad_batches;
    }
    total += batch->num_rows();
  }
  // matched (two) + kBuildRows unmatched build + unmatched probe (four).
  EXPECT_EQ(total, kBuildRows + 2);
  EXPECT_LE(max_batch, table::kDefaultBatchRows);
  // ceil(3500 / 1024) = 4 chunks of build pads.
  EXPECT_GE(pad_batches, 4u);
}

// ---------------------------------------------------------------------------
// ORDER BY side resolution
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, OrderByResolvesEvaluationSideOncePerItem) {
  // The output alias m (a map column) shadows the pre-projection column
  // m, whose row 1 holds an int: `m['k']` evaluates fine against the
  // pre-projection rows 0 and 2 but errors on row 1. Pre-fix, the
  // per-row fallback mixed keys from both schemas (pre values 0 and 5
  // for rows 0/2, output value 1 for row 1 -> id order 10,20,30);
  // post-fix the whole item falls back to the output schema (keys
  // 9,1,9 -> id order 20,10,30).
  Table t(Schema{{{"m", DataType::kNull},
                  {"m2", DataType::kNull},
                  {"id", DataType::kInt64}}});
  table::ValueMap a0, a2, b0, b1, b2;
  a0["k"] = Value::Int(0);
  a2["k"] = Value::Int(5);
  b0["k"] = Value::Int(9);
  b1["k"] = Value::Int(1);
  b2["k"] = Value::Int(9);
  t.AppendRow({Value::Map(a0), Value::Map(b0), Value::Int(10)});
  t.AppendRow({Value::Int(7), Value::Map(b1), Value::Int(20)});
  t.AppendRow({Value::Map(a2), Value::Map(b2), Value::Int(30)});
  catalog_.RegisterTable("t", std::move(t));

  for (const size_t parallelism : {size_t{1}, size_t{4}}) {
    Executor exec(&catalog_, &functions_, parallelism);
    auto res = exec.Query("SELECT m2 AS m, id FROM t ORDER BY m['k']");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->num_rows(), 3u);
    EXPECT_EQ(res->At(0, 1).AsInt(), 20) << "parallelism " << parallelism;
    EXPECT_EQ(res->At(1, 1).AsInt(), 10) << "parallelism " << parallelism;
    EXPECT_EQ(res->At(2, 1).AsInt(), 30) << "parallelism " << parallelism;
  }
}

TEST_F(OperatorsTest, OrderByAliasShadowingStillPrefersPreProjection) {
  // When the pre-projection side evaluates cleanly on *every* row the
  // fix changes nothing: `id * 1` is no output column reference, so it
  // keys off the retained pre-projection rows exactly as the seed
  // interpreter does — even though `a AS id` shadows the name.
  Table t(Schema{{{"id", DataType::kInt64}, {"a", DataType::kInt64}}});
  t.AppendRow({Value::Int(3), Value::Int(100)});
  t.AppendRow({Value::Int(1), Value::Int(200)});
  t.AppendRow({Value::Int(2), Value::Int(300)});
  catalog_.RegisterTable("t", std::move(t));
  Executor exec(&catalog_, &functions_, 1);
  auto res = exec.Query("SELECT a AS id FROM t ORDER BY id * 1");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->num_rows(), 3u);
  // Sorted by pre-projection id (3,1,2) -> a values 200,300,100.
  EXPECT_EQ(res->At(0, 0).AsInt(), 200);
  EXPECT_EQ(res->At(1, 0).AsInt(), 300);
  EXPECT_EQ(res->At(2, 0).AsInt(), 100);
}

// ---------------------------------------------------------------------------
// Parallel join/sort/materialisation: byte-identical output + ExecStats
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, ParallelJoinSortMaterialiseByteIdentical) {
  // Big enough that the build partitions, the probe shards, the sort
  // shards and the chunked materialisation all actually engage
  // (ShardRows grain is 1024 rows).
  constexpr int kRows = 6000;
  Table big(Schema{{{"k", DataType::kInt64},
                    {"v", DataType::kDouble},
                    {"id", DataType::kInt64}}});
  Table dim(Schema{{{"k", DataType::kInt64}, {"w", DataType::kDouble}}});
  for (int i = 0; i < kRows; ++i) {
    big.AppendRow({Value::Int(i % 2048), Value::Double((i * 37) % 211),
                   Value::Int(i)});
  }
  for (int i = 0; i < 4096; ++i) {
    dim.AppendRow({Value::Int(i), Value::Double(i * 0.5)});
  }
  catalog_.RegisterTable("big", std::move(big));
  catalog_.RegisterTable("dim", std::move(dim));

  const std::string query =
      "SELECT big.id AS id, big.v + dim.w AS s FROM big "
      "JOIN dim ON big.k = dim.k ORDER BY s DESC, id LIMIT 500";
  Executor serial(&catalog_, &functions_, 1);
  Executor parallel(&catalog_, &functions_, 4);
  auto r1 = serial.Query(query);
  auto r4 = parallel.Query(query);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  ASSERT_EQ(r1->num_rows(), 500u);
  ASSERT_EQ(r1->num_rows(), r4->num_rows());
  for (size_t r = 0; r < r1->num_rows(); ++r) {
    for (size_t c = 0; c < r1->num_columns(); ++c) {
      ASSERT_TRUE(r1->At(r, c).Equals(r4->At(r, c)))
          << "row " << r << " col " << c;
    }
  }
  // The parallel run actually took the parallel paths.
  const ExecStats& stats = parallel.last_stats();
  EXPECT_GE(stats.join_build_partitions, 2u);
  EXPECT_GE(stats.sort_shards, 2u);
  EXPECT_EQ(serial.last_stats().join_build_partitions, 1u);
  EXPECT_EQ(serial.last_stats().sort_shards, 1u);
}

TEST_F(OperatorsTest, ParallelMaterialisationAssemblesChunks) {
  constexpr int kRows = 5000;
  Table big(Schema{{{"id", DataType::kInt64}, {"v", DataType::kDouble}}});
  for (int i = 0; i < kRows; ++i) {
    big.AppendRow({Value::Int(i), Value::Double(i * 0.25)});
  }
  catalog_.RegisterTable("big", std::move(big));

  const std::string query = "SELECT id, v * 2 AS w FROM big WHERE id >= 0";
  Executor serial(&catalog_, &functions_, 1);
  Executor parallel(&catalog_, &functions_, 4);
  auto r1 = serial.Query(query);
  auto r4 = parallel.Query(query);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  ASSERT_EQ(r1->num_rows(), static_cast<size_t>(kRows));
  ASSERT_EQ(r4->num_rows(), static_cast<size_t>(kRows));
  for (size_t r = 0; r < r1->num_rows(); ++r) {
    for (size_t c = 0; c < r1->num_columns(); ++c) {
      ASSERT_TRUE(r1->At(r, c).Equals(r4->At(r, c)))
          << "row " << r << " col " << c;
    }
  }
  EXPECT_GE(parallel.last_stats().materialize_chunks, 2u);
  EXPECT_EQ(serial.last_stats().materialize_chunks, 1u);
}

// ---------------------------------------------------------------------------
// LIMIT over streaming stages: same rows, same error, at every parallelism
// ---------------------------------------------------------------------------

class LimitParityTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 5000;  // five batches

  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();
    Table t(Schema{{{"value", DataType::kInt64}}});
    for (size_t i = 0; i < kRows; ++i) {
      t.AppendRow({Value::Int(static_cast<int64_t>(i))});
    }
    catalog_.RegisterTable("t", std::move(t));
  }

  struct Run {
    Result<Table> result;
    ExecStats stats;
  };

  Run Query(const std::string& sql, size_t parallelism) {
    Executor ex(&catalog_, &functions_, parallelism);
    Result<Table> r = ex.Query(sql);
    return Run{std::move(r), ex.last_stats()};
  }

  static const OperatorStats* Find(const ExecStats& stats,
                                   const std::string& name) {
    for (const OperatorStats& op : stats.operators) {
      if (op.name == name) return &op;
    }
    return nullptr;
  }

  /// `sql` returns exactly one row, whose first column is `want`, at
  /// parallelism 1 and 4.
  void ExpectOneRow(const std::string& sql, int64_t want) {
    for (const size_t p : {size_t{1}, size_t{4}}) {
      Run run = Query(sql, p);
      ASSERT_TRUE(run.result.ok())
          << "p=" << p << ": " << run.result.status().ToString();
      ASSERT_EQ(run.result->num_rows(), 1u) << "p=" << p;
      EXPECT_EQ(run.result->At(0, 0).AsInt(), want) << "p=" << p;
    }
  }

  Catalog catalog_;
  FunctionRegistry functions_;
};

TEST_F(LimitParityTest, FilterErrorPastLimitDoesNotSurface) {
  // Rows >= 3000 reference a missing column; LIMIT 1 is satisfied by the
  // first batch, so neither level may evaluate far enough to see it.
  ExpectOneRow(
      "SELECT value FROM t "
      "WHERE CASE WHEN value >= 3000 THEN nosuch > 0 ELSE TRUE END LIMIT 1",
      0);
}

TEST_F(LimitParityTest, ProjectErrorPastLimitDoesNotSurface) {
  ExpectOneRow(
      "SELECT CASE WHEN value >= 3000 THEN nosuch ELSE value END AS v "
      "FROM t LIMIT 1",
      0);
}

TEST_F(LimitParityTest, FilterErrorDoesNotSurfaceThroughProjectReadAhead) {
  // Scan -> Filter -> Project -> LIMIT: a parallel Project pulls several
  // Filter outputs per round. Filter's third output is its error; the
  // pull must defer it behind the two good batches, which LIMIT never
  // gets past.
  const std::string sql =
      "SELECT value * 2 AS w FROM t "
      "WHERE CASE WHEN value >= 2500 THEN nosuch > 0 ELSE TRUE END LIMIT 1";
  ExpectOneRow(sql, 0);
  Run run = Query(sql, 4);
  EXPECT_NE(Find(run.stats, "Filter"), nullptr);
  EXPECT_NE(Find(run.stats, "Project"), nullptr);
}

TEST_F(LimitParityTest, ErrorInFirstBatchSurfacesAtEveryLevel) {
  for (const std::string& sql :
       {std::string("SELECT value FROM t WHERE CASE WHEN value >= 10 "
                    "THEN nosuch > 0 ELSE TRUE END LIMIT 1"),
        std::string("SELECT CASE WHEN value >= 10 THEN nosuch ELSE value "
                    "END AS v FROM t LIMIT 1")}) {
    for (const size_t p : {size_t{1}, size_t{4}}) {
      Run run = Query(sql, p);
      ASSERT_FALSE(run.result.ok()) << "p=" << p << ": " << sql;
      EXPECT_EQ(run.result.status().code(), StatusCode::kNotFound)
          << "p=" << p << ": " << run.result.status().ToString();
    }
  }
}

TEST_F(LimitParityTest, FilterEmitsTheSameBatchesAtEveryLevel) {
  // Each child batch is one morsel: a full drain emits one Filter batch
  // per surviving input batch at both levels.
  const std::string sql = "SELECT value FROM t WHERE value % 3 = 0";
  Run serial = Query(sql, 1);
  Run parallel = Query(sql, 4);
  ASSERT_TRUE(serial.result.ok()) << serial.result.status().ToString();
  ASSERT_TRUE(parallel.result.ok()) << parallel.result.status().ToString();
  const OperatorStats* f1 = Find(serial.stats, "Filter");
  const OperatorStats* f4 = Find(parallel.stats, "Filter");
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f4, nullptr);
  EXPECT_EQ(f1->batches_output, 5u);
  EXPECT_EQ(f4->batches_output, f1->batches_output);
  EXPECT_EQ(f4->rows_output, f1->rows_output);
}

// ---------------------------------------------------------------------------
// Group and join keys meet exactly when Value::Equals says so: doubles are
// not rounded to their printed form, types do not alias through text, and
// separators inside strings cannot merge composite keys. HashJoin must
// agree with NestedLoopJoin (which evaluates `=` directly) at every
// parallelism level.
// ---------------------------------------------------------------------------

class KeyEncodingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();
    auto one_column = [&](const std::string& name, std::vector<Value> ks) {
      Table t(Schema{{{"k", DataType::kDouble}}});
      for (Value& k : ks) t.AppendRow({std::move(k)});
      catalog_.RegisterTable(name, std::move(t));
    };
    one_column("near", {Value::Double(1.0000001), Value::Double(1.0000002),
                        Value::Double(3.0)});
    one_column("zeros", {Value::Double(0.0), Value::Double(-0.0),
                         Value::Double(std::nan("")), Value::Null()});
    one_column("mixed", {Value::Double(1.0), Value::String("1"),
                         Value::Int(7), Value::String("7"),
                         Value::String("NULL"), Value::Null()});
    Table pairs(Schema{{{"a", DataType::kString}, {"b", DataType::kString}}});
    pairs.AppendRow({Value::String("x\x1f"), Value::String("y")});
    pairs.AppendRow({Value::String("x"), Value::String("\x1fy")});
    catalog_.RegisterTable("pairs", std::move(pairs));
  }

  Table Run(const std::string& sql, size_t parallelism,
            ExecStats* stats = nullptr) {
    Executor ex(&catalog_, &functions_, parallelism);
    auto r = ex.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (stats != nullptr) *stats = ex.last_stats();
    return r.ok() ? std::move(r).value() : Table();
  }

  /// Self-join row count through HashJoin (`x.k = y.k`) and through
  /// NestedLoopJoin (the same test hidden behind an OR).
  void ExpectJoinsAgree(const std::string& table, size_t want) {
    for (size_t p : {1, 4}) {
      ExecStats hs, ns;
      const Table hash = Run("SELECT x.k AS a, y.k AS b FROM " + table +
                                 " x JOIN " + table + " y ON x.k = y.k",
                             p, &hs);
      const Table nested = Run("SELECT x.k AS a, y.k AS b FROM " + table +
                                   " x JOIN " + table +
                                   " y ON x.k = y.k OR 1 = 0",
                               p, &ns);
      EXPECT_EQ(hs.hash_joins, 1u) << table;
      EXPECT_EQ(ns.nested_loop_joins, 1u) << table;
      EXPECT_EQ(hash.num_rows(), want) << table << " p=" << p;
      EXPECT_EQ(nested.num_rows(), want) << table << " p=" << p;
    }
  }

  Catalog catalog_;
  FunctionRegistry functions_;
};

TEST_F(KeyEncodingTest, GroupByKeepsNearDoublesApart) {
  for (size_t p : {1, 4}) {
    const Table t =
        Run("SELECT k, COUNT(*) AS n FROM near GROUP BY k", p);
    ASSERT_EQ(t.num_rows(), 3u) << "p=" << p;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(t.At(r, 1).AsInt(), 1) << "p=" << p;
    }
  }
}

TEST_F(KeyEncodingTest, GroupBySeparatesTypesAndStringNull) {
  for (size_t p : {1, 4}) {
    // 1.0 / '1', 7 / '7' and 'NULL' / NULL are six distinct keys.
    EXPECT_EQ(Run("SELECT k, COUNT(*) AS n FROM mixed GROUP BY k", p)
                  .num_rows(),
              6u)
        << "p=" << p;
    // 0.0 and -0.0 are one key; NaN and NULL each group with themselves.
    EXPECT_EQ(Run("SELECT k, COUNT(*) AS n FROM zeros GROUP BY k", p)
                  .num_rows(),
              3u)
        << "p=" << p;
  }
}

TEST_F(KeyEncodingTest, GroupBySeparatorInsideStringsDoesNotMergeGroups) {
  for (size_t p : {1, 4}) {
    EXPECT_EQ(Run("SELECT a, b, COUNT(*) AS n FROM pairs GROUP BY a, b", p)
                  .num_rows(),
              2u)
        << "p=" << p;
  }
}

TEST_F(KeyEncodingTest, HashJoinKeepsNearDoublesApart) {
  ExpectJoinsAgree("near", 3);
}

TEST_F(KeyEncodingTest, HashJoinMatchesOnlyEqualValues) {
  // 0.0 meets -0.0 (four pairs); NaN and NULL meet nothing.
  ExpectJoinsAgree("zeros", 4);
  // Each value meets only itself: 1.0 never meets '1', nor 7 '7'.
  ExpectJoinsAgree("mixed", 5);
}

// ---------------------------------------------------------------------------
// HashAggregate evaluates a computed group key once per run of rows whose
// input cells repeat (a store scan repeats metric_name and each series'
// shared tag map), reuses a select item across groups the same way, and
// merges its per-shard group tables in shard order.
// ---------------------------------------------------------------------------

class GroupRunTest : public ::testing::Test {
 protected:
  static constexpr int64_t kPointsPerSeries = 512;

  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();
    // A pure UDF that counts its calls.
    functions_.Register(
        "COUNTED",
        [this](const std::vector<Value>& args) -> Result<Value> {
          calls_.fetch_add(1);
          return Value::String(args.at(0).ToString());
        });
    // Eight series of 512 points: metrics a and b over hosts h0..h3, so
    // a/hN and b/hN carry equal tag maps that are different objects, and
    // every series lies inside one 1024-row batch.
    auto store = std::make_shared<tsdb::SeriesStore>();
    for (const char* metric : {"a", "b"}) {
      for (int host = 0; host < 4; ++host) {
        const tsdb::TagSet tags{{"host", "h" + std::to_string(host)}};
        for (int64_t i = 0; i < kPointsPerSeries; ++i) {
          ASSERT_TRUE(
              store->Write(metric, tags, i * 60, static_cast<double>(i % 9))
                  .ok());
        }
      }
    }
    tsdb::ScanRequest req;
    req.range = TimeRange{0, kPointsPerSeries * 60};
    auto scanned = store->ScanToTable(req);
    ASSERT_TRUE(scanned.ok());
    ASSERT_EQ(scanned->num_rows(), 8u * kPointsPerSeries);
    catalog_.RegisterTable("tsdb", std::move(scanned).value());

    // The same tag values, but a fresh map object in every row.
    Table maps(Schema{{{"m", DataType::kMap}, {"v", DataType::kDouble}}});
    for (int r = 0; r < 3000; ++r) {
      table::ValueMap m;
      m["host"] = Value::String("h" + std::to_string(r % 3));
      maps.AppendRow({Value::Map(std::move(m)), Value::Double(1.0)});
    }
    catalog_.RegisterTable("maps", std::move(maps));
  }

  Table Run(const std::string& sql, size_t parallelism) {
    Executor ex(&catalog_, &functions_, parallelism);
    calls_ = 0;
    auto r = ex.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Table();
  }

  std::atomic<int> calls_{0};
  Catalog catalog_;
  FunctionRegistry functions_;
};

TEST_F(GroupRunTest, ComputedKeyRunsOncePerSeriesInPhaseOne) {
  for (size_t p : {1, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    // The key reads metric_name and the tag map: one call per series.
    Table t = Run(
        "SELECT COUNT(*) AS n FROM tsdb "
        "GROUP BY COUNTED(CONCAT(metric_name, '@', tag['host']))",
        p);
    EXPECT_EQ(calls_.load(), 8);
    ASSERT_EQ(t.num_rows(), 8u);
    for (size_t r = 0; r < 8; ++r) {
      EXPECT_EQ(t.At(r, 0).AsInt(), kPointsPerSeries);
    }
    // A key of metric_name alone repeats across series too: one call per
    // run of equal names within a batch (a/h0-h1, a/h2-h3, b/h0-h1,
    // b/h2-h3).
    t = Run("SELECT COUNT(*) AS n FROM tsdb GROUP BY COUNTED(metric_name)", p);
    EXPECT_EQ(calls_.load(), 4);
    ASSERT_EQ(t.num_rows(), 2u);
    EXPECT_EQ(t.At(0, 0).AsInt(), 4 * kPointsPerSeries);
    EXPECT_EQ(t.At(1, 0).AsInt(), 4 * kPointsPerSeries);
  }
}

TEST_F(GroupRunTest, SelectItemReusedAcrossGroupsWithRepeatedInputs) {
  // 1024 (metric, timestamp) groups. Phase 1 calls COUNTED once per run
  // of equal names within a batch (4); finalisation once per run of
  // groups whose representative rows share a metric name (a/h0's rows
  // for a, b/h0's for b).
  for (size_t p : {1, 4}) {
    const Table t = Run(
        "SELECT COUNTED(metric_name) AS k, timestamp, COUNT(*) AS n "
        "FROM tsdb GROUP BY COUNTED(metric_name), timestamp",
        p);
    EXPECT_EQ(calls_.load(), 4 + 2) << "p=" << p;
    ASSERT_EQ(t.num_rows(), 2u * kPointsPerSeries);
    EXPECT_EQ(t.At(0, 0).AsString(), "a");
    EXPECT_EQ(t.At(kPointsPerSeries, 0).AsString(), "b");
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(t.At(r, 2).AsInt(), 4);
    }
  }
}

TEST_F(GroupRunTest, EqualTagMapsFromDifferentObjectsGroupTogether) {
  for (size_t p : {1, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    // a/hN and b/hN: equal maps, distinct objects, one group per host.
    for (const char* key : {"COUNTED(tag)", "tag"}) {
      const Table t = Run(std::string("SELECT tag['host'] AS h, COUNT(*) AS n "
                                      "FROM tsdb GROUP BY ") +
                              key,
                          p);
      ASSERT_EQ(t.num_rows(), 4u) << key;
      for (size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(t.At(r, 0).AsString(), "h" + std::to_string(r)) << key;
        EXPECT_EQ(t.At(r, 1).AsInt(), 2 * kPointsPerSeries) << key;
      }
    }
    // A fresh map in every row is never reused, and still groups by value.
    const Table t =
        Run("SELECT COUNTED(m) AS k, SUM(v) AS s FROM maps GROUP BY COUNTED(m)",
            p);
    EXPECT_EQ(calls_.load(), 3000 + 3);
    ASSERT_EQ(t.num_rows(), 3u);
    for (size_t r = 0; r < 3; ++r) EXPECT_EQ(t.At(r, 1).AsDouble(), 1000.0);
  }
}

TEST_F(GroupRunTest, ShardMergeKeepsFirstSeenOrderAndValues) {
  // Keys first seen in every shard (including NULL, NaN, 0.0 and -0.0,
  // which group together) must merge into the p=1 order, with equal
  // values, in both partial and index mode.
  Table wide(Schema{{{"k", DataType::kDouble}, {"v", DataType::kDouble}}});
  for (int r = 0; r < 6000; ++r) {
    Value k = Value::Double(r < 3000 ? r % 7 : 100 + r % 5);
    if (r % 1000 == 999) k = Value::Null();
    if (r % 1500 == 1499) k = Value::Double(std::nan(""));
    if (r % 700 == 0) k = Value::Double(r % 1400 == 0 ? 0.0 : -0.0);
    wide.AppendRow({std::move(k), Value::Double(r % 11)});
  }
  catalog_.RegisterTable("wide", std::move(wide));
  // 7 keys r % 7 (0.0 and -0.0 among them), 5 keys past row 3000, NULL
  // and NaN (4 rows each, which the HAVING drops).
  const std::pair<const char*, size_t> queries[] = {
      {"SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, "
       "AVG(v) AS a FROM wide GROUP BY k",
       14},
      {"SELECT k, STDDEV(v) AS sd, COUNT(*) AS n FROM wide GROUP BY k "
       "HAVING COUNT(*) > 5",
       12}};
  for (const auto& [sql, groups] : queries) {
    SCOPED_TRACE(sql);
    Executor serial(&catalog_, &functions_, 1);
    Executor parallel(&catalog_, &functions_, 4);
    auto r1 = serial.Query(sql);
    auto r4 = parallel.Query(sql);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();
    ASSERT_EQ(r1->num_rows(), r4->num_rows());
    EXPECT_EQ(r1->num_rows(), groups);
    for (size_t r = 0; r < r1->num_rows(); ++r) {
      for (size_t c = 0; c < r1->num_columns(); ++c) {
        EXPECT_EQ(r1->At(r, c).ToString(), r4->At(r, c).ToString())
            << "row " << r << " col " << c;
      }
    }
    bool four_shards = false;
    for (const OperatorStats& op : parallel.last_stats().operators) {
      if (op.name == "HashAggregate") {
        four_shards = op.detail.find("4 shards") != std::string::npos;
      }
    }
    EXPECT_TRUE(four_shards) << "the parallel run must merge four shards";
  }
}

TEST_F(GroupRunTest, ShardMergeKeepsTheFirstDeferredErrorInRowOrder) {
  // An aggregate argument fails on rows 1501 and 4501 of group 1 and on
  // row 3000 of group 0: the query reports group 0's error (the first
  // group in output order), and within group 1 the row-1501 error
  // precedes row 4501's, wherever the shard boundaries fall.
  functions_.Register(
      "CHECKED", [](const std::vector<Value>& args) -> Result<Value> {
        const int64_t row = args.at(0).AsInt();
        if (row == 1501 || row == 3000 || row == 4501) {
          return Status::InvalidArgument("bad row " + std::to_string(row));
        }
        return args[0];
      });
  Table rows(Schema{{{"k", DataType::kInt64}, {"r", DataType::kInt64}}});
  for (int r = 0; r < 6000; ++r) {
    rows.AppendRow({Value::Int(r % 2), Value::Int(r)});
  }
  catalog_.RegisterTable("rows", std::move(rows));
  for (size_t p : {1, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    Executor ex(&catalog_, &functions_, p);
    auto all = ex.Query("SELECT k, SUM(CHECKED(r)) AS s FROM rows GROUP BY k");
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.status().message(), "bad row 3000");
    // HAVING drops group 0 without consulting its failed slot.
    auto one = ex.Query(
        "SELECT k, SUM(CHECKED(r)) AS s FROM rows GROUP BY k HAVING k = 1");
    ASSERT_FALSE(one.ok());
    EXPECT_EQ(one.status().message(), "bad row 1501");
    auto none = ex.Query(
        "SELECT k, COUNT(*) AS n FROM rows GROUP BY k "
        "HAVING SUM(CHECKED(r)) IS NULL OR k = 0");
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().message(), "bad row 3000");
  }
}

}  // namespace
}  // namespace explainit::sql
