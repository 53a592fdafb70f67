/// Persistence contract of the tuning cache: winners round-trip through
/// the CRC-framed JSON file; anything torn, corrupted, or syntactically
/// off is *ignored* (load() -> false, cache stays empty) so the solver
/// falls back to searching; a different problem-shape bucket is a miss
/// that forces a re-tune.
#include "tuning/tuning_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "resilience/checkpoint.hpp"

namespace gaia::tuning {
namespace {

namespace fs = std::filesystem;
using backends::BackendKind;
using backends::KernelConfig;
using backends::KernelId;

class TuningCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("gaia_tuning_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Cache with a complete gpusim entry set for `bucket`.
  [[nodiscard]] static TuningCache full_cache(ShapeBucket bucket) {
    TuningCache cache;
    for (KernelId id : backends::all_kernels())
      cache.put(BackendKind::kGpuSim, bucket, id,
                {32 + static_cast<int>(id), 64});
    return cache;
  }

  fs::path dir_;
};

TEST(ShapeBucketTest, BucketsAreFloorLog2) {
  EXPECT_EQ(bucket_for(1024, 512), (ShapeBucket{10, 9}));
  EXPECT_EQ(bucket_for(1023, 511), (ShapeBucket{9, 8}));
  EXPECT_EQ(bucket_for(1, 1), (ShapeBucket{0, 0}));
  // Degenerate sizes clamp instead of producing negative exponents.
  EXPECT_EQ(bucket_for(0, -5), (ShapeBucket{0, 0}));
  // Same order of magnitude -> same bucket (the transfer rule).
  EXPECT_EQ(bucket_for(40000, 3000), bucket_for(65535, 2048));
}

TEST_F(TuningCacheTest, PutFindApplyRoundTrip) {
  const ShapeBucket bucket{15, 11};
  TuningCache cache;
  EXPECT_FALSE(cache.find(BackendKind::kGpuSim, bucket, KernelId::kAprod2Att)
                   .has_value());
  EXPECT_FALSE(cache.complete_for(BackendKind::kGpuSim, bucket));

  cache.put(BackendKind::kGpuSim, bucket, KernelId::kAprod2Att, {32, 32});
  const auto hit =
      cache.find(BackendKind::kGpuSim, bucket, KernelId::kAprod2Att);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (KernelConfig{32, 32}));
  // Partial coverage installs what it has but is not "complete".
  backends::TuningTable table = backends::TuningTable::untuned({256, 256});
  EXPECT_EQ(cache.apply(BackendKind::kGpuSim, bucket, table), 1);
  EXPECT_EQ(table.get(KernelId::kAprod2Att), (KernelConfig{32, 32}));
  EXPECT_EQ(table.get(KernelId::kAprod1Astro), (KernelConfig{256, 256}));
  EXPECT_FALSE(cache.complete_for(BackendKind::kGpuSim, bucket));

  const TuningCache full = full_cache(bucket);
  EXPECT_TRUE(full.complete_for(BackendKind::kGpuSim, bucket));
  EXPECT_EQ(full.size(), static_cast<std::size_t>(backends::kNumKernels));
}

TEST_F(TuningCacheTest, SaveLoadRoundTripsThroughTheSealedFile) {
  const ShapeBucket bucket{15, 11};
  full_cache(bucket).save(path("tc.json"));

  TuningCache loaded;
  ASSERT_TRUE(loaded.load(path("tc.json")));
  EXPECT_TRUE(loaded.complete_for(BackendKind::kGpuSim, bucket));
  for (KernelId id : backends::all_kernels()) {
    const auto hit = loaded.find(BackendKind::kGpuSim, bucket, id);
    ASSERT_TRUE(hit.has_value()) << to_string(id);
    EXPECT_EQ(*hit, (KernelConfig{32 + static_cast<int>(id), 64}));
  }
}

TEST_F(TuningCacheTest, MissingFileIsACleanMiss) {
  TuningCache cache;
  EXPECT_FALSE(cache.load(path("nonexistent.json")));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(TuningCacheTest, CorruptedFileIsRejectedAndIgnored) {
  full_cache({15, 11}).save(path("tc.json"));
  // Flip one byte in the middle of the sealed payload: the CRC framing
  // must catch it and load() must leave the cache empty.
  std::fstream f(path("tc.json"),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);
  f.put('~');
  f.close();
  TuningCache cache;
  EXPECT_FALSE(cache.load(path("tc.json")));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(TuningCacheTest, TruncatedFileIsRejectedAndIgnored) {
  full_cache({15, 11}).save(path("tc.json"));
  const auto full_size = fs::file_size(path("tc.json"));
  fs::resize_file(path("tc.json"), full_size / 2);  // torn write
  TuningCache cache;
  EXPECT_FALSE(cache.load(path("tc.json")));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(TuningCacheTest, ValidFramingWithGarbageJsonIsRejected) {
  // The CRC can pass while the payload is still not a cache document;
  // the strict parser is the second line of defense.
  resilience::write_framed_file(path("tc.json"), "{\"version\":1,\"entr");
  TuningCache cache;
  EXPECT_FALSE(cache.load(path("tc.json")));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(TuningCacheTest, BucketMismatchForcesAReTune) {
  const ShapeBucket tuned_bucket{15, 11};
  full_cache(tuned_bucket).save(path("tc.json"));
  TuningCache cache;
  ASSERT_TRUE(cache.load(path("tc.json")));
  // A problem one order of magnitude larger lands in another bucket:
  // nothing applies, complete_for is false, the solver searches afresh.
  const ShapeBucket other{16, 11};
  EXPECT_FALSE(cache.complete_for(BackendKind::kGpuSim, other));
  backends::TuningTable table;
  EXPECT_EQ(cache.apply(BackendKind::kGpuSim, other, table), 0);
  // Same bucket, different backend: also a miss.
  EXPECT_FALSE(cache.complete_for(BackendKind::kOpenMP, tuned_bucket));
}

TEST(TuningCacheJson, DocumentRoundTripsAndIsStable) {
  TuningCache cache;
  cache.put(BackendKind::kGpuSim, {8, 7}, KernelId::kAprod2Att, {32, 32});
  cache.put(BackendKind::kOpenMP, {8, 7}, KernelId::kAprod1Astro, {16, 128});
  const std::string json = cache.to_json();
  EXPECT_NE(json.find("\"version\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\":\"aprod2_att\""), std::string::npos);
  EXPECT_EQ(json.find("\"precision\""), std::string::npos);
  EXPECT_EQ(json.find("\"strategy\""), std::string::npos);
  EXPECT_EQ(json.find("\"layout\""), std::string::npos);
  const auto parsed = TuningCache::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
  const auto hit =
      parsed->find(BackendKind::kGpuSim, {8, 7}, KernelId::kAprod2Att);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (KernelConfig{32, 32}));
  // Serialization is deterministic (diffable caches).
  EXPECT_EQ(parsed->to_json(), json);
}

TEST(TuningCacheJson, MissingStrategyAndLayoutKeysDefaultToSeed) {
  // v7 entries carry no strategy, layout or precision key: the inert
  // fields keep their defaults.
  const std::string json =
      "{\"version\":7,\"entries\":[{\"backend\":\"gpusim\","
      "\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"aprod2_att\","
      "\"blocks\":32,\"threads\":32}]}";
  const auto parsed = TuningCache::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  const auto hit =
      parsed->find(BackendKind::kGpuSim, {8, 7}, KernelId::kAprod2Att);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (KernelConfig{32, 32}));
}

TEST(TuningCacheJson, StrictParserRejectsEveryMalformation) {
  const auto entry = [](const std::string& backend, const std::string& kernel,
                        int blocks, int threads) {
    return "{\"version\":7,\"entries\":[{\"backend\":\"" + backend +
           "\",\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"" + kernel +
           "\",\"blocks\":" + std::to_string(blocks) +
           ",\"threads\":" + std::to_string(threads) + "}]}";
  };
  // The control: the generator above produces a parsable document.
  ASSERT_TRUE(TuningCache::parse_json(entry("gpusim", "aprod2_att", 32, 32))
                  .has_value());

  using Status = TuningCache::ParseStatus;
  Status status = Status::kOk;
  EXPECT_FALSE(TuningCache::parse_json("", &status).has_value());
  EXPECT_EQ(status, Status::kMalformed);
  EXPECT_FALSE(TuningCache::parse_json("not json").has_value());
  EXPECT_FALSE(TuningCache::parse_json("{\"version\":2}").has_value());
  // Other schema versions: rejected, but as a *version miss*, not
  // corruption — the entries are never trusted. v1 predates the
  // strategy axis, v2 the layout axis, v3 the precision axis; v4 still
  // carries the layout axis, v5 the strategy axis and v6 the precision
  // axis.
  EXPECT_FALSE(
      TuningCache::parse_json("{\"version\":1,\"entries\":[]}", &status)
          .has_value());
  EXPECT_EQ(status, Status::kVersionMismatch);
  EXPECT_FALSE(
      TuningCache::parse_json("{\"version\":2,\"entries\":[]}", &status)
          .has_value());
  EXPECT_EQ(status, Status::kVersionMismatch);
  EXPECT_FALSE(
      TuningCache::parse_json("{\"version\":3,\"entries\":[]}", &status)
          .has_value());
  EXPECT_EQ(status, Status::kVersionMismatch);
  EXPECT_FALSE(
      TuningCache::parse_json("{\"version\":4,\"entries\":[]}", &status)
          .has_value());
  EXPECT_EQ(status, Status::kVersionMismatch);
  EXPECT_FALSE(
      TuningCache::parse_json("{\"version\":5,\"entries\":[]}", &status)
          .has_value());
  EXPECT_EQ(status, Status::kVersionMismatch);
  EXPECT_FALSE(
      TuningCache::parse_json("{\"version\":6,\"entries\":[]}", &status)
          .has_value());
  EXPECT_EQ(status, Status::kVersionMismatch);
  // Unknown backend / kernel names.
  EXPECT_FALSE(TuningCache::parse_json(entry("cuda11", "aprod2_att", 32, 32))
                   .has_value());
  EXPECT_FALSE(TuningCache::parse_json(entry("gpusim", "aprod9_att", 32, 32))
                   .has_value());
  // A v7 entry carrying the retired strategy, layout or precision key is
  // an unknown key, whatever its value.
  for (const std::string retired :
       {",\"strategy\":\"atomic\"", ",\"layout\":\"seed_aos\"",
        ",\"precision\":\"fp64\"", ",\"precision\":\"fp32\""}) {
    std::string with_key = entry("gpusim", "aprod2_att", 32, 32);
    with_key.insert(with_key.find(",\"threads\""), retired);
    EXPECT_FALSE(TuningCache::parse_json(with_key, &status).has_value())
        << retired;
    EXPECT_EQ(status, Status::kMalformed) << retired;
  }
  // Unlaunchable shapes: negative, zero-paired, absurd.
  EXPECT_FALSE(TuningCache::parse_json(entry("gpusim", "aprod2_att", -1, 32))
                   .has_value());
  EXPECT_FALSE(TuningCache::parse_json(entry("gpusim", "aprod2_att", 0, 32))
                   .has_value());
  EXPECT_FALSE(
      TuningCache::parse_json(entry("gpusim", "aprod2_att", 32, 1 << 20))
          .has_value());
  // Trailing garbage after a well-formed document.
  EXPECT_FALSE(
      TuningCache::parse_json(entry("gpusim", "aprod2_att", 32, 32) + "x")
          .has_value());
}

TEST(TuningCacheJson, OldVersionFileBumpsTheVersionMissCounter) {
  namespace fs = std::filesystem;
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.reset();
  const std::string p =
      (fs::path(::testing::TempDir()) / "gaia_tc_v1.json").string();
  resilience::write_framed_file(
      p, "{\"version\":1,\"entries\":[{\"backend\":\"gpusim\","
         "\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"aprod2_att\","
         "\"blocks\":32,\"threads\":32}]}");
  TuningCache cache;
  EXPECT_FALSE(cache.load(p));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(reg.counter("tuning.cache.version_miss").value(), 1u);
  // A sealed v2 cache (strategy axis, no layout axis) is the file an
  // upgrade actually encounters: same clean fallback to a re-tune, no
  // entry ever trusted.
  resilience::write_framed_file(
      p, "{\"version\":2,\"entries\":[{\"backend\":\"gpusim\","
         "\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"aprod2_att\","
         "\"blocks\":32,\"threads\":32,\"strategy\":\"privatized\"}]}");
  EXPECT_FALSE(cache.load(p));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(reg.counter("tuning.cache.version_miss").value(), 2u);
  // A sealed v3 cache (layout axis, no precision axis): version miss,
  // entries untouched.
  resilience::write_framed_file(
      p, "{\"version\":3,\"entries\":[{\"backend\":\"gpusim\","
         "\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"aprod2_att\","
         "\"blocks\":32,\"threads\":32,\"strategy\":\"privatized\","
         "\"layout\":\"seed_aos\"}]}");
  EXPECT_FALSE(cache.load(p));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(reg.counter("tuning.cache.version_miss").value(), 3u);
  // A sealed v4 cache (layout and precision axes): its "layout" key is
  // never parsed, the file is a clean version miss.
  resilience::write_framed_file(
      p, "{\"version\":4,\"entries\":[{\"backend\":\"gpusim\","
         "\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"aprod2_att\","
         "\"blocks\":32,\"threads\":32,\"strategy\":\"privatized\","
         "\"layout\":\"seed_aos\",\"precision\":\"fp32\"}]}");
  EXPECT_FALSE(cache.load(p));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(reg.counter("tuning.cache.version_miss").value(), 4u);
  // A sealed v5 cache (strategy and precision axes): its "strategy" key
  // is never parsed, the file is a clean version miss.
  resilience::write_framed_file(
      p, "{\"version\":5,\"entries\":[{\"backend\":\"gpusim\","
         "\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"aprod2_att\","
         "\"blocks\":32,\"threads\":32,\"strategy\":\"atomic\","
         "\"precision\":\"fp64\"}]}");
  EXPECT_FALSE(cache.load(p));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(reg.counter("tuning.cache.version_miss").value(), 5u);
  // A sealed v6 cache (precision axis) — the file this release's upgrade
  // encounters: its fp32 winner is never trusted, the file is a clean
  // version miss.
  resilience::write_framed_file(
      p, "{\"version\":6,\"entries\":[{\"backend\":\"gpusim\","
         "\"rows_log2\":8,\"cols_log2\":7,\"kernel\":\"aprod2_att\","
         "\"blocks\":32,\"threads\":32,\"precision\":\"fp32\"}]}");
  EXPECT_FALSE(cache.load(p));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(reg.counter("tuning.cache.version_miss").value(), 6u);
  // Plain corruption does not touch the version-miss counter.
  resilience::write_framed_file(p, "not json");
  EXPECT_FALSE(cache.load(p));
  EXPECT_EQ(reg.counter("tuning.cache.version_miss").value(), 6u);
  fs::remove(p);
  reg.set_enabled(false);
  reg.reset();
}

TEST(ShapeBucketTest, ToStringNamesBothAxes) {
  const std::string s = to_string(ShapeBucket{15, 11});
  EXPECT_NE(s.find("15"), std::string::npos);
  EXPECT_NE(s.find("11"), std::string::npos);
}

}  // namespace
}  // namespace gaia::tuning
