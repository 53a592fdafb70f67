#include "util/framed_file.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/crc32.hpp"
#include "util/error.hpp"

namespace gaia::util {

namespace fs = std::filesystem;

namespace {

constexpr char kFooterMagic[8] = {'G', 'A', 'I', 'A', 'F', 'T', 'R', '1'};
constexpr std::size_t kFooterSize =
    sizeof(kFooterMagic) + sizeof(std::uint64_t) + sizeof(std::uint32_t);

/// The writer's stdio buffer: the serializers append in pieces of a few
/// bytes to a few KiB, and a 64 KiB buffer turns a 1.14 MiB seal into
/// about twenty write calls. It lives only as long as its writer.
constexpr std::size_t kWriteBufferBytes = std::size_t{1} << 16;

}  // namespace

FramedFileWriter::FramedFileWriter(std::string path, std::string what)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp"),
      what_(std::move(what)),
      buffer_(new char[kWriteBufferBytes]),
      crc_(crc32_init()) {
  file_ = std::fopen(tmp_.c_str(), "wb");
  GAIA_CHECK(file_ != nullptr,
             "cannot open " + what_ + " for writing: " + tmp_);
  std::setvbuf(file_, buffer_.get(), _IOFBF, kWriteBufferBytes);
}

FramedFileWriter::~FramedFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
  if (!committed_) {
    std::error_code ec;
    fs::remove(tmp_, ec);
  }
}

void FramedFileWriter::close_and_throw(const std::string& reason) {
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  std::error_code ec;
  fs::remove(tmp_, ec);
  throw Error(reason);
}

void FramedFileWriter::append(const void* data, std::size_t size) {
  GAIA_CHECK(file_ != nullptr, what_ + " already sealed: " + path_);
  if (size == 0) return;
  crc_ = crc32_update(crc_, data, size);
  size_ += size;
  if (std::fwrite(data, 1, size, file_) != size)
    close_and_throw(what_ + " write failed: " + tmp_);
}

void FramedFileWriter::commit() {
  GAIA_CHECK(file_ != nullptr, what_ + " already sealed: " + path_);
  char footer[kFooterSize];
  char* out = footer;
  std::memcpy(out, kFooterMagic, sizeof(kFooterMagic));
  out += sizeof(kFooterMagic);
  std::memcpy(out, &size_, sizeof(size_));
  out += sizeof(size_);
  const std::uint32_t crc = crc32_final(crc_);
  std::memcpy(out, &crc, sizeof(crc));
  const bool written =
      std::fwrite(footer, 1, kFooterSize, file_) == kFooterSize;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!written || !closed) close_and_throw(what_ + " write failed: " + tmp_);
  std::error_code ec;
  fs::rename(tmp_, path_, ec);
  if (ec) close_and_throw(what_ + " rename failed: " + tmp_ + " -> " + path_);
  committed_ = true;
}

void write_framed_file(const std::string& path, std::string_view payload,
                       const std::string& what) {
  FramedFileWriter out(path, what);
  out.append(payload);
  out.commit();
}

std::string read_framed_file(const std::string& path,
                             const std::string& what) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  const std::streamoff length = f.good() ? std::streamoff(f.tellg()) : -1;
  GAIA_CHECK(length >= 0, "cannot open " + what + " for reading: " + path);
  std::string bytes(static_cast<std::size_t>(length), '\0');
  f.seekg(0);
  f.read(bytes.data(), static_cast<std::streamsize>(length));
  // A file that shrank since it was sized reads short: the checks below
  // then see what is actually there.
  bytes.resize(static_cast<std::size_t>(f.gcount()));

  if (bytes.size() < kFooterSize ||
      std::memcmp(bytes.data() + bytes.size() - kFooterSize, kFooterMagic,
                  sizeof(kFooterMagic)) != 0) {
    throw Error("corrupt " + what + " '" + path +
                "': missing CRC footer (file truncated or not a sealed " +
                what + ")");
  }
  const char* footer = bytes.data() + bytes.size() - kFooterSize;
  std::uint64_t payload_size = 0;
  std::memcpy(&payload_size, footer + sizeof(kFooterMagic),
              sizeof(payload_size));
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc,
              footer + sizeof(kFooterMagic) + sizeof(payload_size),
              sizeof(stored_crc));
  if (payload_size != bytes.size() - kFooterSize) {
    throw Error("corrupt " + what + " '" + path + "': truncated (footer says " +
                std::to_string(payload_size) + " payload bytes, file has " +
                std::to_string(bytes.size() - kFooterSize) + ")");
  }
  bytes.resize(static_cast<std::size_t>(payload_size));
  const std::uint32_t actual_crc = util::crc32(bytes);
  if (actual_crc != stored_crc) {
    throw Error("corrupt " + what + " '" + path +
                "': CRC mismatch (bit flip or partial write)");
  }
  return bytes;
}

bool verify_framed_file(const std::string& path) {
  try {
    (void)read_framed_file(path);
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace gaia::util
