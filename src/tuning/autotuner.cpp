#include "tuning/autotuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tuning/kernel_registry.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace gaia::tuning {

using backends::KernelConfig;
using backends::KernelId;

namespace {

void note_trial() {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& trials = reg.counter("tuning.trials");
    trials.add(1);
  }
}

void note_winner(KernelId id, KernelConfig cfg, double median_s) {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    static obs::Counter& tuned = reg.counter("tuning.kernels_tuned");
    tuned.add(1);
  }
  auto& rec = obs::TraceRecorder::current();
  if (rec.enabled()) {
    rec.instant("tuning_winner", "tuning", obs::TraceRecorder::kMainTrack,
                {{"kernel", backends::to_string(id)},
                 {"blocks", static_cast<std::int64_t>(cfg.blocks)},
                 {"threads", static_cast<std::int64_t>(cfg.threads)},
                 {"median_us", median_s * 1e6}});
  }
}

}  // namespace

Autotuner::Autotuner(backends::BackendKind backend, AutotuneOptions options)
    : backend_(backend),
      options_(std::move(options)),
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
  // (collision avoidance; on the host, fewer slices to fold), gathers
  // want occupancy.
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
  note_trial();
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
    note_winner(id, config_of(s.best), s.best_median);
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

int Autotuner::kernels_tuned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int n = 0;
  for (const KernelSearch& s : search_)
    if (s.finished && s.scored) ++n;
  return n;
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

std::vector<real> encode_table(const backends::TuningTable& table) {
  std::vector<real> out;
  out.reserve(kEncodedTableSize);
  for (backends::KernelId id : backends::all_kernels()) {
    const KernelConfig cfg = table.get(id);
    out.push_back(static_cast<real>(cfg.blocks));
    out.push_back(static_cast<real>(cfg.threads));
  }
  return out;
}

backends::TuningTable decode_table(std::span<const real> data) {
  GAIA_CHECK(data.size() == kEncodedTableSize,
             "decode_table: wrong element count");
  backends::TuningTable table;
  std::size_t i = 0;
  for (backends::KernelId id : backends::all_kernels()) {
    table.set(id, {static_cast<std::int32_t>(data[i]),
                   static_cast<std::int32_t>(data[i + 1])});
    i += 2;
  }
  return table;
}

}  // namespace gaia::tuning
