#include "tuning/autotuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "tuning/kernel_registry.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace gaia::tuning {

using backends::KernelConfig;
using backends::KernelId;

Autotuner::Autotuner(backends::BackendKind backend, AutotuneOptions options)
    : options_(std::move(options)),
      enabled_(backends::honors_kernel_config(backend)) {
  GAIA_CHECK(options_.samples_per_config >= 1,
             "autotuner needs at least one sample per config");
  GAIA_CHECK(options_.max_configs_per_kernel >= 1,
             "autotuner needs a positive config budget");
  GAIA_CHECK(!options_.block_grid.empty() && !options_.thread_grid.empty(),
             "autotuner search grid must not be empty");
  for (std::int32_t b : options_.block_grid)
    backends::validate_kernel_config({b, options_.thread_grid.front()},
                                     "autotuner block grid");
  for (std::int32_t t : options_.thread_grid)
    backends::validate_kernel_config({options_.block_grid.front(), t},
                                     "autotuner thread grid");
}

bool Autotuner::active() const {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(kAprodPasses.begin(), kAprodPasses.end(),
                     [&](const AprodPass& pass) {
                       return !search_[static_cast<std::size_t>(pass.id)]
                                   .finished;
                     });
}

bool Autotuner::searching(KernelId id) const {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return !search_[static_cast<std::size_t>(id)].finished;
}

KernelConfig Autotuner::config_of(Candidate c) const {
  return {options_.block_grid[static_cast<std::size_t>(c.bi)],
          options_.thread_grid[static_cast<std::size_t>(c.ti)]};
}

int Autotuner::nearest_index(const std::vector<std::int32_t>& grid,
                             std::int32_t value) const {
  int best = 0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    if (std::abs(grid[i] - value) < std::abs(grid[best] - value))
      best = static_cast<int>(i);
  }
  return best;
}

void Autotuner::seed_locked(KernelId id, KernelSearch& s) {
  // The paper's prior: atomic scatters want few threads in flight
  // (collision avoidance), gathers want occupancy.
  const bool narrow = backends::kernel_uses_atomics(id);
  s.current.bi = nearest_index(options_.block_grid, narrow ? 32 : 128);
  s.current.ti = nearest_index(options_.thread_grid, narrow ? 32 : 128);
  s.visited.insert({s.current.bi, s.current.ti});
  s.started = true;
}

void Autotuner::push_neighbors_locked(KernelSearch& s, Candidate c) {
  const auto try_push = [&](int bi, int ti) {
    if (bi < 0 || ti < 0 ||
        bi >= static_cast<int>(options_.block_grid.size()) ||
        ti >= static_cast<int>(options_.thread_grid.size()))
      return;
    if (!s.visited.insert({bi, ti}).second) return;
    s.pending.push_back({bi, ti});
  };
  // Axis moves only — this is the coordinate-descent step set.
  try_push(c.bi - 1, c.ti);
  try_push(c.bi + 1, c.ti);
  try_push(c.bi, c.ti - 1);
  try_push(c.bi, c.ti + 1);
}

KernelConfig Autotuner::propose(KernelId id) {
  if (!enabled_) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  KernelSearch& s = search_[static_cast<std::size_t>(id)];
  if (s.finished) return s.scored ? config_of(s.best) : KernelConfig{};
  if (!s.started) seed_locked(id, s);
  return config_of(s.current);
}

bool Autotuner::report(KernelId id, KernelConfig cfg, double seconds) {
  if (!enabled_) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  KernelSearch& s = search_[static_cast<std::size_t>(id)];
  if (s.finished || !s.started) return false;
  if (cfg != config_of(s.current)) return false;  // stale (e.g. failover)
  trials_++;
  s.samples.push_back(seconds);
  if (static_cast<int>(s.samples.size()) < options_.samples_per_config)
    return false;

  const double med = util::median(s.samples);
  s.samples.clear();
  s.evaluated++;
  // Neighbors expand only around an improvement: greedy descent.
  if (!s.scored || med < s.best_median) {
    s.best = s.current;
    s.best_median = med;
    s.scored = true;
    push_neighbors_locked(s, s.current);
  }
  if (s.pending.empty() || s.evaluated >= options_.max_configs_per_kernel) {
    s.finished = true;
    return true;
  }
  s.current = s.pending.back();
  s.pending.pop_back();
  return false;
}

KernelConfig Autotuner::best(KernelId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  return s.scored ? config_of(s.best) : KernelConfig{};
}

double Autotuner::best_median_s(KernelId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  return s.scored ? s.best_median : std::numeric_limits<double>::infinity();
}

std::uint64_t Autotuner::trials() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trials_;
}

backends::TuningTable Autotuner::apply_winners(
    backends::TuningTable base) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (KernelId id : backends::all_kernels()) {
    const KernelSearch& s = search_[static_cast<std::size_t>(id)];
    if (s.scored) base.set(id, config_of(s.best));
  }
  return base;
}

void Autotuner::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (KernelSearch& s : search_) s.finished = true;
}

}  // namespace gaia::tuning
