/// \file scratch_arena.hpp
/// \brief Pooled, size-bucketed scratch buffers for the scatter commit.
///
/// The aprod2 scatter commit needs `row blocks x section` reals of
/// scratch on every launch — per LSQR iteration, for thousands of iterations.
/// Paying the allocator each time would dwarf the commit itself,
/// so buffers are pooled: a released buffer parks in a power-of-two size
/// bucket and the next acquire of a compatible size reuses it. After the
/// first iteration touched every kernel's bucket, the steady state is
/// allocator-silent (the miss counter stops moving — asserted in tests).
///
/// Byte accounting mirrors `DeviceBuffer`/`DeviceContext`: pooled and
/// in-use byte totals plus hit/miss counters, surfaced as obs metrics
/// (`scratch.arena.*`) so arena pressure shows up next to the device
/// residency numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/types.hpp"

namespace gaia::backends {

enum class BackendKind : std::uint8_t;

class ScratchArena {
 public:
  /// RAII hold on one pooled buffer. The buffer returns to its bucket on
  /// destruction; contents are *not* zeroed (the scatter commit zeroes
  /// each block's slice itself, in parallel).
  class Lease {
   public:
    Lease() = default;
    Lease(ScratchArena* arena, std::unique_ptr<std::vector<real>> buffer)
        : arena_(arena), buffer_(std::move(buffer)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] real* data() { return buffer_ ? buffer_->data() : nullptr; }
    [[nodiscard]] std::size_t size() const {
      return buffer_ ? buffer_->size() : 0;
    }

   private:
    void release();
    ScratchArena* arena_ = nullptr;
    std::unique_ptr<std::vector<real>> buffer_;
  };

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Hands out a buffer of at least `n` reals (rounded up to the bucket
  /// size, so reuse is by order of magnitude, not exact length). n == 0
  /// yields an empty lease without touching the pool.
  [[nodiscard]] Lease acquire(std::size_t n);

  /// Frees every pooled (not-in-use) buffer.
  void trim();

  /// Pool reuse counters: an acquire served from the pool is a hit, one
  /// that had to allocate is a miss. misses() flat across iterations is
  /// the "allocator-silent after warm-up" contract.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// Bytes parked in buckets awaiting reuse / bytes currently leased out.
  [[nodiscard]] byte_size pooled_bytes() const;
  [[nodiscard]] byte_size in_use_bytes() const;

  /// Process-wide arena of one backend (catalog launchers fall back to
  /// this when the launch carries no arena).
  static ScratchArena& for_backend(BackendKind kind);

 private:
  static constexpr int kNumBuckets = 40;  ///< 2^0 .. 2^39 reals
  static int bucket_of(std::size_t n);
  void give_back(std::unique_ptr<std::vector<real>> buffer);
  void publish_gauges_locked();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<real>>> buckets_[kNumBuckets];
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t hits_published_ = 0;
  std::uint64_t misses_published_ = 0;
  byte_size pooled_bytes_ = 0;
  byte_size in_use_bytes_ = 0;
};

}  // namespace gaia::backends
