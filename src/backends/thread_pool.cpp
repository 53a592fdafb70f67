#include "backends/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "util/error.hpp"

namespace gaia::backends {

namespace {

/// Pins the calling thread to one CPU. Slot 0 is left to the submitting
/// thread (worker i takes CPU i+1 mod ncpu), so the main thread and the
/// first worker do not fight over a core. Best-effort: a failed
/// affinity call (cgroup-restricted CPU set, exotic platform) is simply
/// ignored — pinning is an optimization, never a correctness need.
void pin_current_thread(unsigned worker_index) {
#ifdef __linux__
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET((worker_index + 1) % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)worker_index;
#endif
}

}  // namespace

bool ThreadPool::pin_threads_requested() {
  static const bool requested = [] {
    const char* env = std::getenv("GAIA_PIN_THREADS");
    if (!env) return false;
    const std::string v(env);
    return v == "1" || v == "on" || v == "true";
  }();
  return requested;
}

ThreadPool::ThreadPool(unsigned n_workers) {
  const bool pin = pin_threads_requested();
  threads_.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i)
    threads_.emplace_back([this, i, pin] {
      if (pin) pin_current_thread(i);
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::work_on(Job& job) {
  job.active.fetch_add(1, std::memory_order_acq_rel);
  std::int64_t start;
  while ((start = job.next.fetch_add(job.grain, std::memory_order_relaxed)) <
         job.n) {
    job.body(start, std::min(start + job.grain, job.n));
  }
  // The last participant to leave an exhausted job signals completion.
  if (job.active.fetch_sub(1, std::memory_order_acq_rel) == 1)
    job.signal_done();
}

void ThreadPool::parallel_for(std::int64_t n, std::int64_t grain,
                              RangeBody body) {
  GAIA_CHECK(grain > 0, "parallel_for grain must be positive");
  if (n <= 0) return;
  if (threads_.empty() || n <= grain) {
    body(0, n);
    return;
  }
  auto job = std::make_shared<Job>(n, grain, std::move(body));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    jobs_.push_back(job);
  }
  queue_cv_.notify_all();
  work_on(*job);
  job->wait_done();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    std::erase(jobs_, job);
  }
}

std::shared_ptr<ThreadPool::Job> ThreadPool::take_job() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  queue_cv_.wait(lock, [&] {
    if (stopping_) return true;
    return std::any_of(jobs_.begin(), jobs_.end(),
                       [](const auto& j) { return !j->exhausted(); });
  });
  if (stopping_) return nullptr;
  for (const auto& j : jobs_) {
    if (!j->exhausted()) return j;
  }
  return nullptr;  // raced with completion; loop again
}

void ThreadPool::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job = take_job();
    if (!job) {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (stopping_) return;
      continue;
    }
    work_on(*job);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("GAIA_POOL_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 0 && v <= 1024) return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(3u, hw > 0 ? hw - 1 : 3u);
  }());
  return pool;
}

namespace {

// 256 KiB chunks: large enough to amortize the chunk counter, small
// enough that pages interleave across however many workers show up.
constexpr std::int64_t kFirstTouchChunk = 256 * 1024;

}  // namespace

void first_touch_zero(void* p, std::size_t bytes) {
  if (p == nullptr || bytes == 0) return;
  auto* base = static_cast<char*>(p);
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(bytes), kFirstTouchChunk,
      [base](std::int64_t lo, std::int64_t hi) {
        std::memset(base + lo, 0, static_cast<std::size_t>(hi - lo));
      });
}

void first_touch_copy(void* dst, const void* src, std::size_t bytes) {
  if (bytes == 0) return;
  auto* to = static_cast<char*>(dst);
  const auto* from = static_cast<const char*>(src);
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(bytes), kFirstTouchChunk,
      [to, from](std::int64_t lo, std::int64_t hi) {
        std::memcpy(to + lo, from + lo, static_cast<std::size_t>(hi - lo));
      });
}

}  // namespace gaia::backends
