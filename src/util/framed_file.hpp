/// \file framed_file.hpp
/// \brief CRC32-sealed file framing: payload + footer, atomic replace.
///
/// The on-disk contract shared by checkpoints, the metrics snapshots and
/// the postmortem bundles: the payload bytes are followed by a fixed
/// footer (magic "GAIAFTR1", payload size, CRC32), the file is written
/// to `<path>.tmp` and renamed into place so readers never observe a
/// torn write, and the reader rejects anything whose footer does not
/// verify. Every writer streams through `FramedFileWriter`, which takes
/// the CRC as the bytes go out, so a seal is one pass over its payload.
/// Lives in util (no dependencies) so every layer above — obs,
/// resilience — can seal files without cycles; resilience keeps
/// thin forwarders for its historical call sites.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace gaia::util {

/// Streams one framed file. Appends go to `<path>.tmp` through a
/// buffered file, updating the CRC and the byte count on the way, so no
/// payload string is built. `commit()` appends the footer, closes the
/// file and renames it over `path`. A writer destroyed before its
/// commit (a producer that threw, say) removes the temp file, and
/// `path` keeps whatever it held before. Throws gaia::Error on I/O
/// failure; `what` names the file kind in error messages
/// ("checkpoint", "metrics snapshot", ...).
class FramedFileWriter {
 public:
  explicit FramedFileWriter(std::string path,
                            std::string what = "framed file");
  ~FramedFileWriter();
  FramedFileWriter(const FramedFileWriter&) = delete;
  FramedFileWriter& operator=(const FramedFileWriter&) = delete;

  void append(const void* data, std::size_t size);
  void append(std::string_view bytes) { append(bytes.data(), bytes.size()); }

  /// Payload bytes appended so far: the size the footer records.
  [[nodiscard]] std::uint64_t size() const { return size_; }

  void commit();

 private:
  void close_and_throw(const std::string& reason);

  std::string path_, tmp_, what_;
  std::unique_ptr<char[]> buffer_;
  std::FILE* file_ = nullptr;
  std::uint32_t crc_;
  std::uint64_t size_ = 0;
  bool committed_ = false;
};

/// Seals `payload` into `path`: one append through a FramedFileWriter.
void write_framed_file(const std::string& path, std::string_view payload,
                       const std::string& what = "framed file");

/// Reads and verifies a framed file in one read sized from the file;
/// returns the payload with the footer stripped. Throws gaia::Error
/// naming `path` and the reason (cannot open, missing footer magic,
/// length mismatch i.e. truncation, CRC mismatch i.e. bit rot).
[[nodiscard]] std::string read_framed_file(
    const std::string& path, const std::string& what = "framed file");

/// Verification without surfacing the payload: true iff the footer
/// checks out.
[[nodiscard]] bool verify_framed_file(const std::string& path);

}  // namespace gaia::util
