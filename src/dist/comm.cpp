#include "dist/comm.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gaia::dist {

namespace {
/// Trace track of a rank's collectives. Ranks run on their own threads,
/// so each gets its own timeline lane (offset to stay clear of stream
/// ids).
std::int32_t rank_track(int rank) { return 1000 + rank; }
}  // namespace

World::World(int size) : size_(size) {
  GAIA_CHECK(size_ >= 1, "world needs at least one rank");
  barrier_ = std::make_unique<std::barrier<>>(size_);
  published_.resize(static_cast<std::size_t>(size_));
}

void World::arrive_barrier() {
  // Checked on both sides of the wait: before, so a poisoned survivor
  // exits without arriving (its catch-side arrive_and_drop keeps the
  // phase count consistent); after, because the dead rank's
  // arrive_and_drop is what completed the phase we were blocked in, and
  // its poison store happens-before that completion.
  if (poisoned_.load(std::memory_order_acquire)) throw WorldPoisoned();
  barrier_->arrive_and_wait();
  if (poisoned_.load(std::memory_order_acquire)) throw WorldPoisoned();
}

void World::poison(std::exception_ptr error) {
  std::string what = "(unknown)";
  try {
    if (error) std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::move(error);
  }
  poisoned_.store(true, std::memory_order_release);
  obs::flight_event("comm", "world.poisoned", what);
}

std::chrono::steady_clock::time_point World::collective_reduce(
    int rank, std::span<real> data, ReduceOp op) {
  const auto ranks = static_cast<std::size_t>(size_);
  const auto self = static_cast<std::size_t>(rank);
  const std::size_t n = data.size();
  // Every rank publishes its span; the entry barrier makes all of them
  // visible, and no staging copy is made.
  published_[self] = data;
  arrive_barrier();
  const auto released = std::chrono::steady_clock::now();
  for (const std::span<const real> other : published_)
    GAIA_CHECK(other.size() == n, "allreduce length differs across ranks");
  // Rank k owns elements [k n / P, (k + 1) n / P): it folds them across
  // the spans in rank order into its own span, so each sum has the bits
  // of a serial rank-ordered fold (the production MPI_Allreduce is
  // reproducible for a fixed rank count) and the ranks' writes never
  // overlap a range another rank reads.
  const auto range_begin = [&](std::size_t k) { return k * n / ranks; };
  for (std::size_t i = range_begin(self); i < range_begin(self + 1); ++i) {
    real acc = published_[0][i];
    for (std::size_t r = 1; r < ranks; ++r) {
      const real v = published_[r][i];
      switch (op) {
        case ReduceOp::kSum:
          acc += v;
          break;
        case ReduceOp::kMax:
          acc = std::max(acc, v);
          break;
        case ReduceOp::kMin:
          acc = std::min(acc, v);
          break;
      }
    }
    data[i] = acc;
  }
  arrive_barrier();
  // Gather the other ranks' reduced ranges from their owners.
  for (std::size_t k = 0; k < ranks; ++k) {
    if (k == self) continue;
    const std::span<const real> owner = published_[k];
    std::copy(owner.begin() + static_cast<std::ptrdiff_t>(range_begin(k)),
              owner.begin() + static_cast<std::ptrdiff_t>(range_begin(k + 1)),
              data.begin() + static_cast<std::ptrdiff_t>(range_begin(k)));
  }
  // No rank may return (and change its span) while a peer still reads it.
  arrive_barrier();
  return released;
}

std::chrono::steady_clock::time_point World::collective_gather(
    int rank, std::span<const real> local, const Comm::GatherRoot& at_root) {
  published_[static_cast<std::size_t>(rank)] = local;
  arrive_barrier();
  const auto released = std::chrono::steady_clock::now();
  if (rank == 0) at_root(published_);
  // The others hold their slices until rank 0 is done reading them.
  arrive_barrier();
  return released;
}

CommStats Comm::timed_collective(
    const char* name, std::uint64_t bytes,
    const std::function<std::chrono::steady_clock::time_point()>& body) {
  auto& rec = obs::TraceRecorder::current();
  if (rec.enabled())
    rec.name_track(rank_track(rank_), "rank-" + std::to_string(rank_) +
                                          " comm");
  // CommStats are always on, so the span is always timed: its one clock
  // pair is the span, the stats and the comm.* histograms alike.
  obs::ScopedTrace span(name, "comm", rank_track(rank_), /*timed=*/true);
  span.add_arg({"rank", static_cast<std::int64_t>(rank_)});
  span.add_arg({"bytes", bytes});
  const auto released = body();
  const double total_s = span.stop();
  const double wait_s =
      std::chrono::duration<double>(released - span.start()).count();

  stats_.collectives += 1;
  stats_.bytes += bytes;
  stats_.seconds += total_s;
  stats_.wait_seconds += wait_s;
  span.add_arg({"wait_us", wait_s * 1e6});

  if (span.armed()) {
    // The wait/exchange split as nested child spans: wait ends when the
    // last rank has arrived at the entry barrier, exchange covers the
    // actual transfer/reduce work. [t0, t0+wait][t0+wait, end] tiles
    // the parent span exactly, so Perfetto renders a two-level lane.
    const double t0_us = rec.to_us(span.start());
    const double wait_us = wait_s * 1e6;
    const double total_us = total_s * 1e6;
    const std::string prefix = name;
    rec.complete(prefix + ".wait", "comm", t0_us, wait_us,
                 rank_track(rank_), {{"rank", std::int64_t{rank_}}});
    rec.complete(prefix + ".exchange", "comm", t0_us + wait_us,
                 std::max(0.0, total_us - wait_us), rank_track(rank_),
                 {{"rank", std::int64_t{rank_}}, {"bytes", bytes}});
  }

  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& calls = reg.counter("comm.collective_calls");
    static obs::Histogram& waits = reg.histogram("comm.wait_seconds");
    calls.add(1);
    waits.record(wait_s);
  }
  return {1, bytes, total_s, wait_s};
}

void Comm::barrier() {
  timed_collective("barrier", 0, [&] {
    world_->arrive_barrier();
    return std::chrono::steady_clock::now();
  });
}

void Comm::allreduce(std::span<real> data, ReduceOp op) {
  const auto bytes = static_cast<std::uint64_t>(data.size_bytes());
  const CommStats call = timed_collective("allreduce", bytes, [&] {
    return world_->collective_reduce(rank_, data, op);
  });
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& calls = reg.counter("comm.allreduce_calls");
    static obs::Counter& traffic = reg.counter("comm.allreduce_bytes");
    static obs::Histogram& seconds = reg.histogram("comm.allreduce_seconds");
    static obs::Histogram& waits =
        reg.histogram("comm.allreduce_wait_seconds");
    calls.add(1);
    traffic.add(bytes);
    seconds.record(call.seconds);
    waits.record(call.wait_seconds);
  }
}

real Comm::allreduce(real value, ReduceOp op) {
  allreduce(std::span<real>(&value, 1), op);
  return value;
}

void Comm::gather(std::span<const real> local, const GatherRoot& at_root) {
  timed_collective("gather", static_cast<std::uint64_t>(local.size_bytes()),
                   [&] {
                     return world_->collective_gather(rank_, local, at_root);
                   });
}

void World::run(const std::function<void(Comm&)>& body) {
  // Fresh barrier and poison state per collective epoch: a previous run
  // may have dropped participants on error.
  barrier_ = std::make_unique<std::barrier<>>(size_);
  poisoned_.store(false, std::memory_order_release);
  first_error_ = nullptr;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &body] {
      Comm comm(this, r, size_);
      try {
        body(comm);
        // A body may return normally after catching WorldPoisoned (the
        // metrics aggregation does); leaving the barrier here keeps a
        // survivor that is still inside arrive_and_wait from waiting
        // forever for this rank.
        barrier_->arrive_and_drop();
      } catch (const WorldPoisoned&) {
        // Collateral unwind of a survivor — the real error is already
        // recorded. Leave the barrier so remaining waiters progress.
        barrier_->arrive_and_drop();
      } catch (...) {
        poison(std::current_exception());
        // Leave the barrier so surviving ranks cannot deadlock waiting
        // for this one; their next barrier crossing sees the poison and
        // unwinds too.
        barrier_->arrive_and_drop();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (std::exception_ptr error = std::exchange(first_error_, nullptr)) {
    poisoned_.store(false, std::memory_order_release);
    std::rethrow_exception(error);
  }
}

}  // namespace gaia::dist
