#include "tsdb/store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <unistd.h>

namespace explainit::tsdb {
namespace {

SeriesStore MakeStore() {
  SeriesStore store;
  TagSet dn1{{"host", "datanode-1"}, {"type", "read_latency"}};
  TagSet dn2{{"host", "datanode-2"}, {"type", "read_latency"}};
  TagSet nn{{"host", "namenode-1"}, {"type", "read_latency"}};
  for (int i = 0; i < 10; ++i) {
    const EpochSeconds t = i * 60;
    EXPECT_TRUE(store.Write("disk", dn1, t, 1.0 + i).ok());
    EXPECT_TRUE(store.Write("disk", dn2, t, 2.0 + i).ok());
    EXPECT_TRUE(store.Write("disk", nn, t, 3.0 + i).ok());
    EXPECT_TRUE(
        store.Write("runtime", TagSet{{"component", "pipeline-1"}}, t, 10.0)
            .ok());
  }
  return store;
}

TEST(TagSetTest, EncodeSortedCanonical) {
  TagSet t{{"z", "1"}, {"a", "2"}};
  EXPECT_EQ(t.Encode(), "a=2,z=1");
}

TEST(TagSetTest, GetAndHas) {
  TagSet t{{"host", "web-1"}};
  EXPECT_EQ(t.Get("host"), "web-1");
  EXPECT_EQ(t.Get("missing"), "");
  EXPECT_TRUE(t.Has("host"));
  EXPECT_FALSE(t.Has("missing"));
}

TEST(TagSetTest, MatchesGlobFilter) {
  TagSet t{{"host", "datanode-7"}, {"dc", "us-east"}};
  EXPECT_TRUE(t.Matches(TagSet{}));  // empty filter matches all
  EXPECT_TRUE(t.Matches(TagSet{{"host", "datanode*"}}));
  EXPECT_TRUE(t.Matches(TagSet{{"host", "datanode-7"}, {"dc", "us-*"}}));
  EXPECT_FALSE(t.Matches(TagSet{{"host", "namenode*"}}));
  EXPECT_FALSE(t.Matches(TagSet{{"rack", "*"}}));  // missing key
}

TEST(StoreTest, CountsSeriesAndPoints) {
  SeriesStore store = MakeStore();
  EXPECT_EQ(store.num_series(), 4u);
  EXPECT_EQ(store.num_points(), 40u);
  EXPECT_GT(store.compressed_bytes(), 0u);
}

TEST(StoreTest, ListSeriesStableOrder) {
  SeriesStore store = MakeStore();
  auto metas = store.ListSeries();
  ASSERT_EQ(metas.size(), 4u);
  EXPECT_EQ(metas[0].metric_name, "disk");
  EXPECT_EQ(metas[0].tags.Get("host"), "datanode-1");
  EXPECT_EQ(metas[3].metric_name, "runtime");
}

TEST(StoreTest, SeriesMetaToString) {
  SeriesMeta m{"disk", TagSet{{"host", "dn-1"}}};
  EXPECT_EQ(m.ToString(), "disk{host=dn-1}");
}

TEST(StoreTest, ScanByMetricGlob) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "disk";
  req.range = {0, 600};
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 3u);
  for (const auto& s : *res) EXPECT_EQ(s.meta.metric_name, "disk");
}

TEST(StoreTest, ScanByTagFilter) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.tag_filter = TagSet{{"host", "datanode*"}};
  req.range = {0, 600};
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 2u);
}

TEST(StoreTest, ScanRespectsTimeRange) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "runtime";
  req.range = {120, 300};  // minutes 2, 3, 4
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ((*res)[0].timestamps.size(), 3u);
  EXPECT_EQ((*res)[0].timestamps[0], 120);
}

TEST(StoreTest, ScanValuesRoundTrip) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "disk";
  req.tag_filter = TagSet{{"host", "datanode-1"}};
  req.range = {0, 600};
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*res)[0].values[i], 1.0 + static_cast<double>(i));
  }
}

TEST(StoreTest, ScanAlignedFillsGrid) {
  SeriesStore store;
  TagSet tags{{"h", "a"}};
  // Observations at minutes 0, 2, 3 only (minute 1, 4 missing).
  ASSERT_TRUE(store.Write("m", tags, 0, 1.0).ok());
  ASSERT_TRUE(store.Write("m", tags, 120, 3.0).ok());
  ASSERT_TRUE(store.Write("m", tags, 180, 4.0).ok());
  ScanRequest req;
  req.metric_glob = "m";
  req.range = {0, 300};
  auto res = store.ScanAligned(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  const auto& s = (*res)[0];
  ASSERT_EQ(s.values.size(), 5u);
  EXPECT_EQ(s.values[0], 1.0);
  EXPECT_EQ(s.values[1], 1.0);  // nearest non-null (tie prefers earlier)
  EXPECT_EQ(s.values[2], 3.0);
  EXPECT_EQ(s.values[3], 4.0);
  EXPECT_EQ(s.values[4], 4.0);  // trailing fill
  EXPECT_EQ(s.timestamps[4], 240);
}

TEST(StoreTest, ScanAlignedRejectsEmptyRange) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.range = {100, 100};
  EXPECT_FALSE(store.ScanAligned(req).ok());
}

TEST(StoreTest, ScanToTableShape) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "disk";
  req.tag_filter = TagSet{{"host", "datanode-1"}};
  req.range = {0, 300};
  auto t = store.ScanToTable(req);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 5u);
  EXPECT_EQ(t->schema().field(0).name, "timestamp");
  EXPECT_EQ(t->At(0, 1).AsString(), "disk");
  const table::ValueMap* tags = t->At(0, 2).AsMap();
  ASSERT_NE(tags, nullptr);
  EXPECT_EQ(tags->at("host").AsString(), "datanode-1");
  EXPECT_EQ(t->At(0, 3).AsDouble(), 1.0);
}

TEST(InterpolateTest, AllNanBecomesZero) {
  std::vector<double> v(4, std::nan(""));
  InterpolateMissing(v);
  for (double x : v) EXPECT_EQ(x, 0.0);
}

TEST(InterpolateTest, NearestNeighbourTieBreak) {
  const double nan = std::nan("");
  std::vector<double> v = {1.0, nan, nan, nan, 5.0};
  InterpolateMissing(v);
  EXPECT_EQ(v[1], 1.0);  // closer to left
  EXPECT_EQ(v[2], 1.0);  // tie -> earlier
  EXPECT_EQ(v[3], 5.0);  // closer to right
}

TEST(StoreTest, WriteSeriesBulk) {
  SeriesStore store;
  std::vector<EpochSeconds> ts = {0, 60, 120};
  std::vector<double> vs = {1, 2, 3};
  ASSERT_TRUE(store.WriteSeries("m", TagSet{}, ts, vs).ok());
  EXPECT_EQ(store.num_points(), 3u);
  EXPECT_FALSE(store.WriteSeries("m", TagSet{}, ts, {1.0}).ok());
}

}  // namespace
}  // namespace explainit::tsdb

namespace explainit::tsdb {
namespace {

TEST(SnapshotTest, RoundTripPreservesEverything) {
  SeriesStore store = MakeStore();
  const std::string path = ::testing::TempDir() + "/snap.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  EXPECT_EQ(loaded.num_series(), store.num_series());
  EXPECT_EQ(loaded.num_points(), store.num_points());
  // Values decode identically.
  ScanRequest req;
  req.metric_glob = "disk";
  req.tag_filter = TagSet{{"host", "datanode-1"}};
  req.range = {0, 600};
  auto a = store.Scan(req);
  auto b = loaded.Scan(req);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  EXPECT_EQ((*a)[0].values, (*b)[0].values);
  EXPECT_EQ((*a)[0].timestamps, (*b)[0].timestamps);
  EXPECT_EQ((*a)[0].meta.tags.Encode(), (*b)[0].meta.tags.Encode());
}

TEST(SnapshotTest, WritesContinueAfterReload) {
  SeriesStore store;
  TagSet tags{{"h", "x"}};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  const std::string path = ::testing::TempDir() + "/snap2.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  // Appends continue the compressed stream seamlessly.
  for (int i = 5; i < 10; ++i) {
    ASSERT_TRUE(loaded.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  ScanRequest req;
  req.range = {0, 600};
  auto scan = loaded.Scan(req);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ((*scan)[0].values.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*scan)[0].values[i], 1.0 + i);
  }
}

TEST(SnapshotTest, RejectsMissingAndCorruptFiles) {
  SeriesStore store;
  EXPECT_FALSE(store.LoadSnapshot("/nonexistent/nope.bin").ok());
  const std::string path = ::testing::TempDir() + "/corrupt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_FALSE(store.LoadSnapshot(path).ok());
}

TEST(SnapshotTest, DirectoryAndEmptyFileAreTypedErrors) {
  // A directory opens for reading and reports a huge size through
  // ftell; the loader must not size a buffer from it.
  SeriesStore store;
  Status dir = Status::OK();
  EXPECT_NO_THROW(dir = store.LoadSnapshot(::testing::TempDir()));
  EXPECT_EQ(dir.code(), StatusCode::kIOError) << dir.ToString();

  const std::string path = ::testing::TempDir() + "/empty.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  Status empty = Status::OK();
  EXPECT_NO_THROW(empty = store.LoadSnapshot(path));
  EXPECT_EQ(empty.code(), StatusCode::kParseError) << empty.ToString();
  EXPECT_EQ(store.num_series(), 0u);
}

TEST(SnapshotTest, SnapshotLargerThanOneReadChunkRoundTrips) {
  // Irregular values compress poorly: a few hundred KiB of snapshot, so
  // the loader's chunked read crosses several chunk boundaries.
  SeriesStore store;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = static_cast<double>(x % 1000003) / 7.0;
    ASSERT_TRUE(store.Write("m", TagSet{{"h", "x"}}, i * 60, v).ok());
  }
  const std::string path = ::testing::TempDir() + "/large.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 3 * 65536L);
  std::fclose(f);
  SeriesStore loaded;
  const Status s = loaded.LoadSnapshot(path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.num_points(), store.num_points());
}

TEST(SnapshotTest, TruncatedSnapshotFailsCleanly) {
  SeriesStore store = MakeStore();
  const std::string path = ::testing::TempDir() + "/trunc.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  // Truncate the file to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  SeriesStore loaded;
  EXPECT_FALSE(loaded.LoadSnapshot(path).ok());
}

TEST(SnapshotTest, WrappingStringLengthIsParseError) {
  SeriesStore store;
  ASSERT_TRUE(store.Write("m", TagSet{{"h", "x"}}, 0, 1.0).ok());
  const std::string path = ::testing::TempDir() + "/wrap.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  // The first metric-name length (after the u32 magic and u64 count):
  // cursor + length wraps to a small value under a naive sum check.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const uint64_t hostile = ~uint64_t{0} - 19;
  ASSERT_EQ(std::fseek(f, 12, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&hostile, sizeof(hostile), 1, f), 1u);
  std::fclose(f);
  SeriesStore loaded;
  const Status s = loaded.LoadSnapshot(path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
}

TEST(SnapshotTest, DuplicateSeriesRecordIsParseError) {
  // A snapshot listing one series twice would load as two entries under
  // one key: scans return both, writes reach only one.
  SeriesStore one;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(one.Write("m", TagSet{{"h", "x"}}, i * 60, 1.0 + i).ok());
  }
  const std::string path = ::testing::TempDir() + "/dup.bin";
  ASSERT_TRUE(one.SaveSnapshot(path).ok());
  std::vector<uint8_t> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<uint8_t>(c));
    std::fclose(f);
  }
  // Header: u32 magic, u64 series count; the one series record follows.
  constexpr size_t kHeader = sizeof(uint32_t) + sizeof(uint64_t);
  ASSERT_GT(bytes.size(), kHeader);
  std::vector<uint8_t> dup(bytes.begin(), bytes.begin() + kHeader);
  const uint64_t count = 2;
  std::memcpy(dup.data() + sizeof(uint32_t), &count, sizeof(count));
  for (int copy = 0; copy < 2; ++copy) {
    dup.insert(dup.end(), bytes.begin() + kHeader, bytes.end());
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(dup.data(), 1, dup.size(), f), dup.size());
    std::fclose(f);
  }

  SeriesStore store;
  ASSERT_TRUE(store.Write("keep", TagSet{}, 0, 7.0).ok());
  const Status s = store.LoadSnapshot(path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
  EXPECT_NE(s.ToString().find("duplicate series"), std::string::npos)
      << s.ToString();
  // The store keeps its previous contents.
  EXPECT_EQ(store.num_series(), 1u);
  EXPECT_EQ(store.num_points(), 1u);
  ScanRequest req;
  auto scan = store.Scan(req);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 1u);
  EXPECT_EQ((*scan)[0].meta.metric_name, "keep");
}

TEST(SnapshotTest, TieredStateRoundTripsWithDirtyHead) {
  // Seal every 4 points, no background thread: 10 points leave two sealed
  // segments and a dirty 2-point head per series. The v2 snapshot must
  // carry all three tiers and rebuild rollups on load.
  StoreOptions opts;
  opts.seal_max_points = 4;
  opts.background_seal = false;
  SeriesStore store(opts);
  const TagSet tags{{"h", "x"}};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  ASSERT_EQ(store.storage_stats().sealed_segments, 2u);
  ASSERT_EQ(store.storage_stats().head_points, 2u);

  const std::string path = ::testing::TempDir() + "/tiered.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded(opts);
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());

  const StorageStats st = loaded.storage_stats();
  EXPECT_EQ(st.sealed_segments, 2u);
  EXPECT_EQ(st.sealed_points, 8u);
  EXPECT_EQ(st.head_points, 2u);
  EXPECT_EQ(loaded.num_points(), 10u);

  ScanRequest req;
  auto a = store.Scan(req);
  auto b = loaded.Scan(req);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)[0].timestamps, (*b)[0].timestamps);
  EXPECT_EQ((*a)[0].values, (*b)[0].values);

  // Rollup tiers were rebuilt at load: a hinted scan of the loaded store
  // serves the sealed segments from the minute tier.
  loaded.ResetScanStats();
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kSum;
  auto rolled = loaded.Scan(req);
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(loaded.scan_stats().segments_rollup_served, 2u);

  // Writes keep going after reload: the head stream continues and the
  // next seal threshold still fires.
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(loaded.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  EXPECT_EQ(loaded.storage_stats().sealed_segments, 3u);
  auto grown = loaded.Scan(ScanRequest{});
  ASSERT_TRUE(grown.ok());
  ASSERT_EQ((*grown)[0].values.size(), 14u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ((*grown)[0].values[i], 1.0 + i);
  }
}

TEST(SnapshotTest, SeedV1FormatStillLoads) {
  // Hand-build a v1 (seed-format) snapshot byte stream: u32 magic "EXTS",
  // u64 series count, then per series metric / tag strings (u64 length
  // prefix) and a single compressed block. The tiered store must load it
  // with the block as the mutable head.
  CompressedBlock block;
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(block.Append(i * 60, 2.0 * static_cast<double>(i)).ok());
  }
  std::vector<uint8_t> buf;
  const uint32_t magic = 0x45585453;  // "EXTS"
  const uint64_t count = 1;
  buf.resize(sizeof(magic) + sizeof(count));
  std::memcpy(buf.data(), &magic, sizeof(magic));
  std::memcpy(buf.data() + sizeof(magic), &count, sizeof(count));
  auto put_string = [&buf](const std::string& s) {
    const uint64_t n = s.size();
    const size_t at = buf.size();
    buf.resize(at + sizeof(n) + s.size());
    std::memcpy(buf.data() + at, &n, sizeof(n));
    std::memcpy(buf.data() + at + sizeof(n), s.data(), s.size());
  };
  put_string("legacy");
  put_string("host=old-1");
  block.Serialize(&buf);

  const std::string path = ::testing::TempDir() + "/seed_v1.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);

  SeriesStore loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  EXPECT_EQ(loaded.num_series(), 1u);
  EXPECT_EQ(loaded.num_points(), 6u);
  // v1 carried no segments: everything loads as head, nothing sealed.
  EXPECT_EQ(loaded.storage_stats().sealed_segments, 0u);
  EXPECT_EQ(loaded.storage_stats().head_points, 6u);

  ScanRequest req;
  auto res = loaded.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ((*res)[0].meta.metric_name, "legacy");
  EXPECT_EQ((*res)[0].meta.tags.Get("host"), "old-1");
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*res)[0].timestamps[i], i * 60);
    EXPECT_EQ((*res)[0].values[i], 2.0 * static_cast<double>(i));
  }
  // A resave upgrades to the tiered (v2) format transparently.
  const std::string path2 = ::testing::TempDir() + "/seed_v1_resaved.bin";
  ASSERT_TRUE(loaded.SaveSnapshot(path2).ok());
  SeriesStore again;
  ASSERT_TRUE(again.LoadSnapshot(path2).ok());
  EXPECT_EQ(again.num_points(), 6u);
}

TEST(StoreTest, ScanToTableHonoursProjectionHint) {
  SeriesStore store;
  const TagSet tags{{"host", "h0"}, {"dc", "d0"}};
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write("cpu", tags, i * 60, i * 1.0).ok());
  }
  ScanRequest req;
  req.range = {0, 300};

  // No projection: all four standard columns.
  auto full = store.ScanToTable(req);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_columns(), 4u);
  EXPECT_EQ(full->num_rows(), 5u);

  // Projection naming two columns (case-insensitively): only those are
  // materialised, in the canonical order.
  req.hints.projection = {"VALUE", "timestamp"};
  auto pruned = store.ScanToTable(req);
  ASSERT_TRUE(pruned.ok());
  ASSERT_EQ(pruned->num_columns(), 2u);
  EXPECT_EQ(pruned->schema().field(0).name, "timestamp");
  EXPECT_EQ(pruned->schema().field(1).name, "value");
  EXPECT_EQ(pruned->num_rows(), 5u);
  EXPECT_EQ(pruned->At(2, 1).AsDouble(), 2.0);

  // A projection naming none of the standard columns keeps all four so
  // "column not found" errors surface with their natural wording.
  req.hints.projection = {"bogus"};
  auto fallback = store.ScanToTable(req);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->num_columns(), 4u);
}

}  // namespace
}  // namespace explainit::tsdb
