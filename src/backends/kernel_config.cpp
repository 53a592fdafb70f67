#include "backends/kernel_config.hpp"

#include <charconv>
#include <sstream>

#include "backends/atomic.hpp"
#include "util/error.hpp"

namespace gaia::backends {

std::string to_string(KernelId id) {
  switch (id) {
    case KernelId::kAprod1Astro:
      return "aprod1_astro";
    case KernelId::kAprod1Att:
      return "aprod1_att";
    case KernelId::kAprod1Instr:
      return "aprod1_instr";
    case KernelId::kAprod1Glob:
      return "aprod1_glob";
    case KernelId::kAprod2Astro:
      return "aprod2_astro";
    case KernelId::kAprod2Att:
      return "aprod2_att";
    case KernelId::kAprod2Instr:
      return "aprod2_instr";
    case KernelId::kAprod2Glob:
      return "aprod2_glob";
  }
  return "unknown_kernel";
}

std::string to_string(AtomicMode mode) {
  return mode == AtomicMode::kNativeRmw ? "rmw" : "cas";
}

const std::array<KernelId, kNumKernels>& all_kernels() {
  static const std::array<KernelId, kNumKernels> ids = {
      KernelId::kAprod1Astro, KernelId::kAprod1Att, KernelId::kAprod1Instr,
      KernelId::kAprod1Glob,  KernelId::kAprod2Astro, KernelId::kAprod2Att,
      KernelId::kAprod2Instr, KernelId::kAprod2Glob};
  return ids;
}

bool is_valid_kernel_config(KernelConfig cfg) {
  if (cfg.is_default()) return true;
  return cfg.blocks >= 1 && cfg.blocks <= kMaxBlocks && cfg.threads >= 1 &&
         cfg.threads <= kMaxThreads;
}

void validate_kernel_config(KernelConfig cfg, const std::string& context) {
  if (is_valid_kernel_config(cfg)) return;
  std::ostringstream os;
  os << context << ": invalid kernel launch shape (blocks=" << cfg.blocks
     << ", threads=" << cfg.threads << "); expected {0,0} (backend default) "
     << "or blocks in [1, " << kMaxBlocks << "] and threads in [1, "
     << kMaxThreads << "]";
  throw Error(os.str());
}

KernelConfig parse_kernel_config(const std::string& text) {
  const auto fail = [&](const char* why) -> KernelConfig {
    throw Error("kernel config \"" + text + "\": " + why +
                " (expected BLOCKSxTHREADS, e.g. 32x128)");
  };
  const std::size_t sep = text.find_first_of("xX*");
  if (sep == std::string::npos || sep == 0 || sep + 1 >= text.size())
    return fail("malformed");
  KernelConfig cfg;
  const char* b = text.data();
  auto r1 = std::from_chars(b, b + sep, cfg.blocks);
  auto r2 = std::from_chars(b + sep + 1, b + text.size(), cfg.threads);
  if (r1.ec != std::errc{} || r1.ptr != b + sep || r2.ec != std::errc{} ||
      r2.ptr != b + text.size())
    return fail("not a pair of integers");
  validate_kernel_config(cfg, "kernel config \"" + text + "\"");
  return cfg;
}

void TuningTable::set(KernelId id, KernelConfig cfg) {
  validate_kernel_config(cfg, "TuningTable::set(" + to_string(id) + ")");
  table_[static_cast<std::size_t>(id)] = cfg;
}

void TuningTable::set_all(KernelConfig cfg) {
  validate_kernel_config(cfg, "TuningTable::set_all");
  table_.fill(cfg);
}

TuningTable TuningTable::tuned_default() {
  TuningTable t;
  // Full-occupancy shapes for the gather-style kernels...
  const KernelConfig wide{256, 128};
  t.set(KernelId::kAprod1Astro, wide);
  t.set(KernelId::kAprod1Att, wide);
  t.set(KernelId::kAprod1Instr, wide);
  t.set(KernelId::kAprod1Glob, wide);
  t.set(KernelId::kAprod2Astro, wide);
  // ...and deliberately narrow shapes where atomics collide (paper SIV):
  // fewer blocks and threads lower the collision probability at the cost
  // of occupancy (on the host, fewer private slices to fold). The solve
  // launches kAprod2Att's entry for the LSQR step, and apply2 for the
  // fused scatter; the instr/glob entries shape their separate kernels
  // only.
  const KernelConfig narrow{32, 32};
  t.set(KernelId::kAprod2Att, narrow);
  t.set(KernelId::kAprod2Instr, narrow);
  t.set(KernelId::kAprod2Glob, {8, 32});
  return t;
}

TuningTable TuningTable::untuned(KernelConfig cfg) {
  TuningTable t;
  t.set_all(cfg);
  return t;
}

}  // namespace gaia::backends
