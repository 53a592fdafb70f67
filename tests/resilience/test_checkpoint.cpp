#include "resilience/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "resilience/fault_injector.hpp"
#include "util/error.hpp"

namespace gaia::resilience {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

/// Fresh scratch directory per test; removed (with contents) afterwards.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("gaia_ckpt_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::global().disarm();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  [[nodiscard]] CheckpointConfig config(std::int64_t every = 1,
                                        int keep = 3) const {
    CheckpointConfig cfg;
    cfg.directory = dir_.string();
    cfg.every = every;
    cfg.keep_last = keep;
    return cfg;
  }

  fs::path dir_;
};

TEST_F(CheckpointTest, FramedFileRoundTrips) {
  const std::string payload = "lsqr state \0 with embedded nul"s;
  write_framed_file(path("a.ckpt"), payload);
  EXPECT_TRUE(verify_framed_file(path("a.ckpt")));
  EXPECT_EQ(read_framed_file(path("a.ckpt")), payload);
}

TEST_F(CheckpointTest, WriteLeavesNoTmpFileBehind) {
  write_framed_file(path("a.ckpt"), "payload");
  int entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    ++entries;
    EXPECT_EQ(entry.path().extension(), ".ckpt") << entry.path();
  }
  EXPECT_EQ(entries, 1);
}

TEST_F(CheckpointTest, UnframedFileIsRejectedNamingThePath) {
  {
    std::ofstream f(path("raw.ckpt"), std::ios::binary);
    f << "no footer here";
  }
  EXPECT_FALSE(verify_framed_file(path("raw.ckpt")));
  try {
    (void)read_framed_file(path("raw.ckpt"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("raw.ckpt"), std::string::npos) << what;
    EXPECT_NE(what.find("footer"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, TruncatedFileIsRejectedAsTruncated) {
  const std::string payload(4096, 'x');
  write_framed_file(path("t.ckpt"), payload);
  fs::resize_file(path("t.ckpt"), fs::file_size(path("t.ckpt")) / 2);
  EXPECT_FALSE(verify_framed_file(path("t.ckpt")));
  try {
    (void)read_framed_file(path("t.ckpt"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("t.ckpt"), std::string::npos) << what;
    // Cutting the file in half also removes the footer; either message
    // names the damage honestly.
    const bool named = what.find("truncated") != std::string::npos ||
                       what.find("footer") != std::string::npos;
    EXPECT_TRUE(named) << what;
  }
}

TEST_F(CheckpointTest, BitFlippedFileIsRejectedAsCrcMismatch) {
  write_framed_file(path("b.ckpt"), std::string(1024, 'y'));
  {
    std::fstream f(path("b.ckpt"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    f.put(static_cast<char>('y' ^ 0x40));
  }
  EXPECT_FALSE(verify_framed_file(path("b.ckpt")));
  try {
    (void)read_framed_file(path("b.ckpt"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("b.ckpt"), std::string::npos) << what;
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, MissingFileIsAnError) {
  EXPECT_FALSE(verify_framed_file(path("nope.ckpt")));
  EXPECT_THROW((void)read_framed_file(path("nope.ckpt")), Error);
}

TEST_F(CheckpointTest, ManagerHonorsTheCadence) {
  CheckpointManager manager(config(/*every=*/5));
  EXPECT_TRUE(manager.enabled());
  EXPECT_FALSE(manager.due(0));
  EXPECT_FALSE(manager.due(4));
  EXPECT_TRUE(manager.due(5));
  EXPECT_FALSE(manager.due(7));
  EXPECT_TRUE(manager.due(10));

  CheckpointManager disabled{CheckpointConfig{}};
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.due(5));
}

TEST_F(CheckpointTest, ManagerRotatesKeepingTheLastK) {
  CheckpointManager manager(config(/*every=*/1, /*keep=*/3));
  for (std::int64_t itn = 1; itn <= 5; ++itn)
    (void)manager.write(itn, "state@" + std::to_string(itn));
  EXPECT_EQ(manager.written(), 5u);

  const auto listed = manager.list();
  ASSERT_EQ(listed.size(), 3u);  // pruned to keep_last
  EXPECT_EQ(listed[0].iteration, 5);  // newest first
  EXPECT_EQ(listed[1].iteration, 4);
  EXPECT_EQ(listed[2].iteration, 3);
  EXPECT_EQ(read_framed_file(listed[0].path), "state@5");
}

TEST_F(CheckpointTest, ResumeSkipsTheCorruptNewest) {
  CheckpointManager manager(config());
  (void)manager.write(5, "state@5");
  const std::string newest = manager.write(10, "state@10");
  // The newest checkpoint rots on disk after sealing.
  fs::resize_file(newest, fs::file_size(newest) - 6);

  std::string restored;
  ::testing::internal::CaptureStderr();
  const auto resumed =
      manager.resume([&](const std::string& payload) { restored = payload; });
  const std::string warning = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->iteration, 5);
  EXPECT_EQ(restored, "state@5");
  EXPECT_NE(warning.find("skipping"), std::string::npos) << warning;
}

TEST_F(CheckpointTest, ResumeSkipsWhatTheCallerRejects) {
  CheckpointManager manager(config());
  (void)manager.write(5, "state@5");
  (void)manager.write(10, "foreign@10");
  // An intact file the caller refuses (say, another problem's
  // fingerprint) is skipped like a corrupt one.
  std::string restored;
  ::testing::internal::CaptureStderr();
  const auto resumed = manager.resume([&](const std::string& payload) {
    GAIA_CHECK(payload.rfind("state@", 0) == 0, "foreign checkpoint");
    restored = payload;
  });
  const std::string warning = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->iteration, 5);
  EXPECT_EQ(restored, "state@5");
  EXPECT_NE(warning.find("foreign checkpoint"), std::string::npos) << warning;

  // A silent walk takes the same decision without a warning.
  ::testing::internal::CaptureStderr();
  const auto quiet = manager.resume(
      [](const std::string& payload) {
        GAIA_CHECK(payload.rfind("state@", 0) == 0, "foreign checkpoint");
      },
      /*report=*/false);
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
  ASSERT_TRUE(quiet.has_value());
  EXPECT_EQ(quiet->iteration, 5);
}

TEST_F(CheckpointTest, ResumeIsEmptyWhenNothingSurvives) {
  CheckpointManager manager(config());
  const auto never = [](const std::string&) { FAIL() << "nothing to load"; };
  EXPECT_FALSE(manager.resume(never).has_value());
  const std::string only = manager.write(3, "state@3");
  fs::resize_file(only, 2);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(manager.resume(never).has_value());
  (void)::testing::internal::GetCapturedStderr();
  // A disabled manager never walks.
  EXPECT_FALSE(CheckpointManager(CheckpointConfig{}).resume(never).has_value());
}

TEST_F(CheckpointTest, ThrowingBodyLeavesTheRotationAsItWas) {
  CheckpointManager manager(config());
  const std::string older = manager.write(5, "state@5");
  const auto failing = [](util::FramedFileWriter& out) {
    out.append(std::string(4096, 'h'));
    throw Error("serializer failed mid-seal");
  };
  // Over an older file of the same name: it survives intact.
  EXPECT_THROW((void)manager.write(5, failing), Error);
  EXPECT_EQ(read_framed_file(older), "state@5");
  EXPECT_FALSE(fs::exists(older + ".tmp"));
  // At a new iteration: neither the file nor its temp file appears.
  EXPECT_THROW((void)manager.write(10, failing), Error);
  EXPECT_FALSE(fs::exists(path("gaia.00000010.ckpt")));
  EXPECT_FALSE(fs::exists(path("gaia.00000010.ckpt.tmp")));
  EXPECT_EQ(manager.written(), 1u);
  EXPECT_EQ(manager.list().size(), 1u);
}

TEST_F(CheckpointTest, InjectedTruncationCorruptsExactlyTheNthWrite) {
  FaultInjector::global().configure("ckpt:truncate,nth=2", 1);
  CheckpointManager manager(config());
  const std::string first = manager.write(1, std::string(512, 'a'));
  const std::string second = manager.write(2, std::string(512, 'b'));
  const std::string third = manager.write(3, std::string(512, 'c'));
  EXPECT_TRUE(verify_framed_file(first));
  EXPECT_FALSE(verify_framed_file(second));
  EXPECT_TRUE(verify_framed_file(third));
}

TEST_F(CheckpointTest, InjectedBitflipIsCaughtByTheCrc) {
  FaultInjector::global().configure("ckpt:bitflip", 1);
  CheckpointManager manager(config());
  const std::string written = manager.write(1, std::string(512, 'z'));
  EXPECT_FALSE(verify_framed_file(written));
  EXPECT_THROW((void)read_framed_file(written), Error);
}

}  // namespace
}  // namespace gaia::resilience
