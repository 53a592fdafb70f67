/// \file framed_file.hpp
/// \brief CRC32-sealed file framing: payload + footer, atomic replace.
///
/// The on-disk contract shared by checkpoints and the metrics
/// snapshots: the payload bytes are followed by a fixed footer
/// (magic "GAIAFTR1", payload size, CRC32), the file is written to
/// `<path>.tmp` and renamed into place so readers never observe a torn
/// write, and the reader rejects anything whose footer does not verify.
/// Lives in util (no dependencies) so every layer above — obs,
/// resilience — can seal files without cycles; resilience keeps
/// thin forwarders for its historical call sites.
#pragma once

#include <string>
#include <string_view>

namespace gaia::util {

/// Appends the CRC footer and atomically replaces `path` (write
/// `<path>.tmp`, then rename). `what` names the file kind in error
/// messages ("checkpoint", "metrics snapshot", ...). Throws gaia::Error
/// on I/O failure.
void write_framed_file(const std::string& path, std::string_view payload,
                       const std::string& what = "framed file");

/// Reads and verifies a framed file; returns the payload with the footer
/// stripped. Throws gaia::Error naming `path` and the reason (missing
/// footer magic, length mismatch i.e. truncation, CRC mismatch i.e.
/// bit rot).
[[nodiscard]] std::string read_framed_file(
    const std::string& path, const std::string& what = "framed file");

/// Verification without surfacing the payload: true iff the footer
/// checks out.
[[nodiscard]] bool verify_framed_file(const std::string& path);

}  // namespace gaia::util
