/// \file thread_pool.hpp
/// \brief Shared worker pool backing the host execution backends.
///
/// All parallel backends (OpenMP excepted — it brings its own runtime)
/// execute on this pool. Design constraints:
///  * multiple submitters may run `parallel_for` concurrently (in-process
///    ranks and independent solvers share the pool);
///  * the submitting thread participates in its own job, so a pool of
///    size 0 degenerates to serial execution and nested submission cannot
///    deadlock;
///  * chunk hand-out is an atomic counter, so work distribution is
///    dynamic (the virtual "GPU blocks" of the gpusim backend have
///    uneven costs).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gaia::backends {

class ThreadPool {
 public:
  /// Range chunk callback: body(begin, end).
  using RangeBody = std::function<void(std::int64_t, std::int64_t)>;

  /// \param n_workers extra worker threads (submitters also execute work,
  /// so total parallelism is n_workers + concurrent submitters).
  explicit ThreadPool(unsigned n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Executes body over [0, n) in chunks of `grain`; returns when every
  /// chunk completed. Thread-safe; callable concurrently and from within
  /// running chunks.
  void parallel_for(std::int64_t n, std::int64_t grain, RangeBody body);

  /// Process-wide pool. Size from GAIA_POOL_THREADS (default:
  /// max(3, hardware_concurrency - 1) so concurrency is exercised even on
  /// small CI machines). Workers pin to distinct CPUs when
  /// GAIA_PIN_THREADS=1 (see `pin_threads_requested`).
  static ThreadPool& global();

  /// True when GAIA_PIN_THREADS asks for worker affinity (1/on/true).
  /// Pinning fixes the first-touch NUMA story: a worker that faults a
  /// page in stays on the socket that owns it, so the page's bandwidth
  /// is local for the rest of the run. Off by default — on a laptop or
  /// an oversubscribed CI box pinning hurts more than it helps.
  [[nodiscard]] static bool pin_threads_requested();

 private:
  struct Job {
    Job(std::int64_t n_, std::int64_t grain_, RangeBody body_)
        : n(n_), grain(grain_), body(std::move(body_)) {}
    const std::int64_t n;
    const std::int64_t grain;
    const RangeBody body;
    std::atomic<std::int64_t> next{0};
    std::atomic<int> active{0};
    std::mutex m;
    std::condition_variable cv;
    bool done = false;

    [[nodiscard]] bool exhausted() const {
      return next.load(std::memory_order_relaxed) >= n;
    }
    void signal_done() {
      {
        std::lock_guard<std::mutex> lock(m);
        done = true;
      }
      cv.notify_all();
    }
    void wait_done() {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return done; });
    }
  };

  /// Runs chunks of `job` until exhausted; signals completion if this
  /// thread retires the last chunk.
  static void work_on(Job& job);

  void worker_loop();
  std::shared_ptr<Job> take_job();

  std::vector<std::thread> threads_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stopping_ = false;
};

/// First-touch initialization: zero-fills `bytes` at `p` in page-sized
/// chunks *in parallel over the global pool*, so under Linux's default
/// first-touch NUMA policy each page lands on the node of the worker
/// that will (with pinning and the same chunking) stream it later.
/// Serial zero-fill — what `std::vector`'s allocator does — places every
/// page on the allocating thread's node and remote-access penalties
/// follow. Safe on any freshly allocated region; do not call on live
/// data (it zeroes).
void first_touch_zero(void* p, std::size_t bytes);

}  // namespace gaia::backends
