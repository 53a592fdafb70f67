/// \file device_buffer.hpp
/// \brief Explicit host/device memory management emulation.
///
/// The CUDA original allocates all system data on the GPU once, before
/// the iteration loop, and never exchanges it again (paper SIV-a) — the
/// study forces the same discipline on every port. We reproduce that
/// contract on host: a `DeviceContext` stands for one accelerator with a
/// capacity limit and transfer accounting, and `DeviceBuffer<T>` is the
/// `cudaMalloc`/`cudaMemcpyAsync` analog. The byte counters let tests
/// assert the solver's "copy once, iterate device-resident" property.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backends/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/retry.hpp"
#include "util/crc32.hpp"
#include "util/default_init_allocator.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace gaia::backends {

/// Memory-coherence granularity of host-visible allocations. The paper
/// observed (SIV-b) that fine-grain coherence "led to performance
/// degradations due to the atomic operations" on AMD, hence the forced
/// `hipMemAdvise` coarse grain; the flag is carried so the performance
/// model can price it.
enum class CoherenceMode : std::uint8_t { kCoarseGrain, kFineGrain };

/// One simulated accelerator: tracks live allocation against a capacity
/// limit and counts transfer traffic in each direction.
class DeviceContext {
 public:
  /// \param capacity device memory capacity; allocations beyond it throw
  /// (the paper's problem sizes are chosen against this limit).
  explicit DeviceContext(byte_size capacity = 64 * kGiB,
                         std::string name = "hostsim")
      : capacity_(capacity), name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] byte_size capacity() const { return capacity_; }
  [[nodiscard]] byte_size allocated() const { return allocated_.load(); }
  [[nodiscard]] byte_size h2d_bytes() const { return h2d_.load(); }
  [[nodiscard]] byte_size d2h_bytes() const { return d2h_.load(); }
  [[nodiscard]] std::uint64_t alloc_count() const { return allocs_.load(); }

  void reset_transfer_counters() {
    h2d_.store(0);
    d2h_.store(0);
  }

  /// Throws the out-of-memory error an allocation of `bytes` would throw
  /// now, without allocating: lets a caller that adopts several arrays
  /// refuse before it takes any of them.
  void require_room(byte_size bytes) const {
    const byte_size in_use = allocated_.load();
    if (in_use + bytes > capacity_) throw out_of_memory(bytes, in_use);
  }

 private:
  template <typename T>
  friend class DeviceBuffer;

  void on_alloc(byte_size bytes) {
    const byte_size now = allocated_.fetch_add(bytes) + bytes;
    if (now > capacity_) {
      allocated_.fetch_sub(bytes);
      throw out_of_memory(bytes, now - bytes);
    }
    allocs_.fetch_add(1);
  }
  [[nodiscard]] Error out_of_memory(byte_size bytes, byte_size in_use) const {
    return Error("device '" + name_ + "' out of memory: need " +
                 std::to_string(bytes) + " B on top of " +
                 std::to_string(in_use) + " B, capacity " +
                 std::to_string(capacity_) + " B");
  }
  void on_free(byte_size bytes) { allocated_.fetch_sub(bytes); }
  void on_h2d(byte_size bytes) { h2d_.fetch_add(bytes); }
  void on_d2h(byte_size bytes) { d2h_.fetch_add(bytes); }

  byte_size capacity_;
  std::string name_;
  std::atomic<byte_size> allocated_{0};
  std::atomic<byte_size> h2d_{0};
  std::atomic<byte_size> d2h_{0};
  std::atomic<std::uint64_t> allocs_{0};
};

/// Typed device allocation with explicit copies (cudaMalloc analog).
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// Zero-filled allocation.
  DeviceBuffer(DeviceContext& ctx, std::size_t count,
               CoherenceMode coherence = CoherenceMode::kCoarseGrain)
      : DeviceBuffer(ctx, count, coherence, Uninitialized{}) {
    std::fill(data_.begin(), data_.end(), T{});
  }

  /// Allocate and copy from host in one step. The copy is the first
  /// touch: nothing zero-fills the buffer first.
  DeviceBuffer(DeviceContext& ctx, std::span<const T> host,
               CoherenceMode coherence = CoherenceMode::kCoarseGrain)
      : DeviceBuffer(ctx, host.size(), coherence, Uninitialized{}) {
    copy_from_host(host);
  }

  /// Adopts `host` as the device storage. On the host backends the
  /// device is host RAM, so an owner that no longer needs its array hands
  /// it over instead of keeping it beside a copy. The bytes are charged
  /// first (a device too small throws and leaves `host` untouched), then
  /// the storage is taken as is: nothing is copied and no H2D traffic is
  /// counted.
  DeviceBuffer(DeviceContext& ctx,
               std::vector<T, util::DefaultInitAllocator<T>>&& host,
               CoherenceMode coherence = CoherenceMode::kCoarseGrain)
      : ctx_(&ctx), coherence_(coherence) {
    ctx_->on_alloc(static_cast<byte_size>(host.size()) * sizeof(T));
    data_ = std::move(host);
  }

  ~DeviceBuffer() {
    if (ctx_) ctx_->on_free(bytes());
  }

  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      if (ctx_) ctx_->on_free(bytes());
      ctx_ = other.ctx_;
      coherence_ = other.coherence_;
      data_ = std::move(other.data_);
      other.ctx_ = nullptr;
      other.data_.clear();
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] byte_size bytes() const {
    return static_cast<byte_size>(data_.size()) * sizeof(T);
  }
  [[nodiscard]] CoherenceMode coherence() const { return coherence_; }

  /// "Device pointer" views for kernels.
  [[nodiscard]] std::span<T> span() { return data_; }
  [[nodiscard]] std::span<const T> span() const { return data_; }
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  /// cudaMemcpy(HostToDevice) analog. When fault injection is armed,
  /// each copy is checksummed and retried with backoff: an injected
  /// failure throws before moving bytes; an injected corruption flips a
  /// bit which the CRC verification catches, so the retry re-copies.
  void copy_from_host(std::span<const T> host) {
    GAIA_CHECK(host.size() == data_.size(), "H2D size mismatch");
    auto& injector = resilience::FaultInjector::global();
    if (!injector.armed()) {
      transfer_h2d(host);
      return;
    }
    resilience::with_retry("h2d", util::BackoffPolicy{}, [&] {
      const auto fault = injector.on_transfer(resilience::FaultSite::kH2D);
      if (fault == resilience::TransferFault::kFail)
        throw resilience::TransientFault("injected H2D transfer failure");
      transfer_h2d(host);
      if (fault == resilience::TransferFault::kCorrupt)
        flip_bit(data_.data(), bytes());
      if (util::crc32(host.data(), host.size_bytes()) !=
          util::crc32(data_.data(), host.size_bytes()))
        throw resilience::TransientFault(
            "H2D transfer verification failed (corrupt copy)");
    });
  }

  /// cudaMemcpy(DeviceToHost) analog (same fault/verify contract as
  /// copy_from_host).
  void copy_to_host(std::span<T> host) const {
    GAIA_CHECK(host.size() == data_.size(), "D2H size mismatch");
    auto& injector = resilience::FaultInjector::global();
    if (!injector.armed()) {
      transfer_d2h(host);
      return;
    }
    resilience::with_retry("d2h", util::BackoffPolicy{}, [&] {
      const auto fault = injector.on_transfer(resilience::FaultSite::kD2H);
      if (fault == resilience::TransferFault::kFail)
        throw resilience::TransientFault("injected D2H transfer failure");
      transfer_d2h(host);
      if (fault == resilience::TransferFault::kCorrupt)
        flip_bit(host.data(), host.size_bytes());
      if (util::crc32(data_.data(), host.size_bytes()) !=
          util::crc32(host.data(), host.size_bytes()))
        throw resilience::TransientFault(
            "D2H transfer verification failed (corrupt copy)");
    });
  }

  /// cudaMemset analog.
  void fill(const T& value) {
    std::fill(data_.begin(), data_.end(), value);
  }

 private:
  struct Uninitialized {};
  DeviceBuffer(DeviceContext& ctx, std::size_t count,
               CoherenceMode coherence, Uninitialized)
      : ctx_(&ctx), coherence_(coherence), data_(count) {
    ctx_->on_alloc(bytes());
  }

  void transfer_h2d(std::span<const T> host) {
    obs::ScopedTrace span("h2d", "transfer");
    first_touch_copy(data_.data(), host.data(), host.size_bytes());
    if (ctx_) {
      span.add_arg("bytes", static_cast<std::uint64_t>(host.size_bytes()));
      span.add_arg("device", ctx_->name());
      ctx_->on_h2d(host.size_bytes());
      // Same increment point and amount as the device accounting, so
      // the metrics CSV totals match DeviceContext::h2d_bytes exactly.
      obs::count_h2d(host.size_bytes());
    }
  }

  void transfer_d2h(std::span<T> host) const {
    obs::ScopedTrace span("d2h", "transfer");
    std::memcpy(host.data(), data_.data(), host.size_bytes());
    if (ctx_) {
      span.add_arg("bytes", static_cast<std::uint64_t>(host.size_bytes()));
      span.add_arg("device", ctx_->name());
      ctx_->on_d2h(host.size_bytes());
      obs::count_d2h(host.size_bytes());
    }
  }

  static void flip_bit(void* data, byte_size bytes) {
    if (bytes == 0) return;
    auto* raw = static_cast<unsigned char*>(data);
    raw[bytes / 2] ^= 0x10;
  }

  DeviceContext* ctx_ = nullptr;
  CoherenceMode coherence_ = CoherenceMode::kCoarseGrain;
  std::vector<T, util::DefaultInitAllocator<T>> data_;
};

}  // namespace gaia::backends
