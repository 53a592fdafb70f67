#include "util/framed_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace gaia::util {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed (with contents) afterwards.
class FramedFile : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("gaia_framed_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& file) {
    std::ifstream f(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
  }

  /// The message read_framed_file throws for `file`.
  std::string read_error(const std::string& file) const {
    try {
      (void)read_framed_file(file);
    } catch (const Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected Error reading " << file;
    return {};
  }

  fs::path dir_;
};

std::string random_payload(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.next());
  return bytes;
}

TEST_F(FramedFile, StreamedAppendsSealTheSameBytesAsOneWrite) {
  const std::string payload = random_payload(300000, 41);
  write_framed_file(path("whole"), payload);
  {
    // Uneven pieces, down to single bytes and empty appends.
    FramedFileWriter out(path("streamed"));
    std::size_t at = 0;
    for (std::size_t piece : {0u, 1u, 7u, 8u, 4093u, 70000u, 0u, 3u}) {
      out.append(payload.data() + at, piece);
      at += piece;
    }
    out.append(std::string_view(payload).substr(at));
    EXPECT_EQ(out.size(), payload.size());
    out.commit();
  }
  EXPECT_EQ(slurp(path("streamed")), slurp(path("whole")));
  EXPECT_EQ(read_framed_file(path("streamed")), payload);
  EXPECT_FALSE(fs::exists(path("streamed.tmp")));
}

TEST_F(FramedFile, ThrowingProducerLeavesNoFileAndKeepsTheOldOne) {
  write_framed_file(path("state"), "the older seal");
  EXPECT_THROW(
      {
        FramedFileWriter out(path("state"));
        out.append(std::string(100000, 'n'));
        throw std::runtime_error("producer failed mid-seal");
      },
      std::runtime_error);
  EXPECT_FALSE(fs::exists(path("state.tmp")));
  EXPECT_EQ(read_framed_file(path("state")), "the older seal");

  {
    FramedFileWriter out(path("fresh"));
    out.append("never committed");
  }
  EXPECT_FALSE(fs::exists(path("fresh")));
  EXPECT_FALSE(fs::exists(path("fresh.tmp")));
}

TEST_F(FramedFile, UnwritableTargetIsAnErrorNamingTheTempFile) {
  const std::string target = path("no-such-dir/state");
  try {
    FramedFileWriter out(target, "checkpoint");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot open checkpoint"), std::string::npos) << what;
    EXPECT_NE(what.find(target + ".tmp"), std::string::npos) << what;
  }
}

TEST_F(FramedFile, SizedReadRoundTripsAMultiMegabytePayload) {
  const std::string payload = random_payload(3 * 1024 * 1024 + 5, 42);
  write_framed_file(path("big"), payload);
  EXPECT_EQ(read_framed_file(path("big")), payload);
  EXPECT_TRUE(verify_framed_file(path("big")));
}

TEST_F(FramedFile, ZeroByteFileIsMissingItsFooter) {
  { std::ofstream f(path("empty"), std::ios::binary); }
  const std::string what = read_error(path("empty"));
  EXPECT_NE(what.find("missing CRC footer"), std::string::npos) << what;
  EXPECT_NE(what.find(path("empty")), std::string::npos) << what;
}

TEST_F(FramedFile, FileShorterThanTheFooterIsMissingItsFooter) {
  // A sealed empty payload is exactly a footer (20 bytes); one byte
  // less cannot hold one.
  write_framed_file(path("short"), "");
  ASSERT_EQ(fs::file_size(path("short")), 20u);
  fs::resize_file(path("short"), 19);
  const std::string what = read_error(path("short"));
  EXPECT_NE(what.find("missing CRC footer"), std::string::npos) << what;
}

TEST_F(FramedFile, MissingFileCannotBeOpened) {
  const std::string what = read_error(path("absent"));
  EXPECT_NE(what.find("cannot open"), std::string::npos) << what;
  EXPECT_FALSE(verify_framed_file(path("absent")));
}

}  // namespace
}  // namespace gaia::util
