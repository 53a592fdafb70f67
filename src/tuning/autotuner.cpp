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
                 {"strategy", backends::to_string(cfg.strategy)},
                 {"layout", backends::to_string(cfg.layout)},
                 {"precision", backends::to_string(cfg.precision)},
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
          options_.thread_grid[static_cast<std::size_t>(c.ti)],
          c.si == 1 ? backends::ScatterStrategy::kPrivatized
                    : backends::ScatterStrategy::kAtomic,
          static_cast<backends::StorageLayout>(c.li),
          static_cast<backends::Precision>(c.pi)};
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
  // (collision avoidance), gathers want occupancy. The privatized
  // strategy has no collisions, so its arm seeds wide.
  const bool atomic = backends::kernel_uses_atomics(id);
  const auto seed_of = [&](int si, int li, int pi) {
    const bool narrow = atomic && si == 0;
    Candidate c;
    c.bi = nearest_index(options_.block_grid, narrow ? 32 : 128);
    c.ti = nearest_index(options_.thread_grid, narrow ? 32 : 128);
    c.si = si;
    c.li = li;
    c.pi = pi;
    return c;
  };
  // Arm list = strategy axis x layout axis x precision axis. The
  // strategy axis only exists for the atomic scatters; the layout and
  // precision axes exist for every kernel. The first combo descends
  // now, the rest are queued (stack, so they are pushed in reverse).
  std::vector<int> strategy_arms{0};
  if (atomic) {
    if (!options_.scatter.has_value())
      strategy_arms = {0, 1};
    else if (*options_.scatter == backends::ScatterStrategy::kPrivatized)
      strategy_arms = {1};
  }
  std::vector<int> layout_arms;
  if (options_.layout.has_value())
    layout_arms = {static_cast<int>(*options_.layout)};
  else
    for (int li = 0; li < backends::kNumStorageLayouts; ++li)
      layout_arms.push_back(li);
  std::vector<int> precision_arms;
  if (options_.precision.has_value())
    precision_arms = {static_cast<int>(*options_.precision)};
  else
    for (int pi = 0; pi < backends::kNumPrecisions; ++pi)
      precision_arms.push_back(pi);
  std::vector<Candidate> combos;
  for (int si : strategy_arms)
    for (int li : layout_arms)
      for (int pi : precision_arms) combos.push_back(seed_of(si, li, pi));
  for (std::size_t i = combos.size(); i > 1; --i)
    s.arm_seeds.push_back(combos[i - 1]);
  const Candidate start = combos.front();
  s.current = start;
  s.visited.insert({start.si, start.li, start.pi, start.bi, start.ti});
  s.started = true;
}

void Autotuner::push_neighbors_locked(KernelSearch& s, Candidate c) {
  const auto try_push = [&](int bi, int ti) {
    if (bi < 0 || ti < 0 ||
        bi >= static_cast<int>(options_.block_grid.size()) ||
        ti >= static_cast<int>(options_.thread_grid.size()))
      return;
    if (!s.visited.insert({c.si, c.li, c.pi, bi, ti}).second) return;
    s.pending.push_back({bi, ti, c.si, c.li, c.pi});
  };
  // Axis moves only — this is the coordinate-descent step set. Strategy,
  // layout and precision are not descent axes: each arm descends from
  // its own seed.
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
  s.arm_evaluated++;
  // The descent is per strategy arm: neighbors expand when the *arm's*
  // best improves (an arm whose seed loses to the other arm still
  // deserves its local search). The overall winner is tracked alongside.
  const auto arm = static_cast<std::size_t>(
      (s.current.si * backends::kNumStorageLayouts + s.current.li) *
          backends::kNumPrecisions +
      s.current.pi);
  if (!s.arm_scored[arm] || med < s.arm_median[arm]) {
    s.arm_best[arm] = s.current;
    s.arm_median[arm] = med;
    s.arm_scored[arm] = true;
    push_neighbors_locked(s, s.current);
  }
  if (!s.scored || med < s.best_median) {
    s.best = s.current;
    s.best_median = med;
    s.scored = true;
  }
  if (s.pending.empty() ||
      s.arm_evaluated >= options_.max_configs_per_kernel) {
    if (!s.arm_seeds.empty()) {
      // This arm is done; start the next (strategy, layout) arm's seed.
      const Candidate seed = s.arm_seeds.back();
      s.arm_seeds.pop_back();
      s.pending.clear();
      s.arm_evaluated = 0;
      s.current = seed;
      s.visited.insert({seed.si, seed.li, seed.pi, seed.bi, seed.ti});
      return false;
    }
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

namespace {

/// Lowest-median arm among those `keep` selects; -1 when none scored.
template <typename Search, typename Keep>
int best_arm(const Search& s, Keep&& keep) {
  int best = -1;
  for (int a = 0; a < Search::kNumArms; ++a) {
    if (!s.arm_scored[static_cast<std::size_t>(a)] || !keep(a)) continue;
    if (best < 0 || s.arm_median[static_cast<std::size_t>(a)] <
                        s.arm_median[static_cast<std::size_t>(best)])
      best = a;
  }
  return best;
}

/// Inverse of the (si * kNumStorageLayouts + li) * kNumPrecisions + pi
/// arm index.
int arm_strategy(int a) {
  return a / (backends::kNumStorageLayouts * backends::kNumPrecisions);
}
int arm_layout(int a) {
  return (a / backends::kNumPrecisions) % backends::kNumStorageLayouts;
}
int arm_precision(int a) { return a % backends::kNumPrecisions; }

}  // namespace

KernelConfig Autotuner::best_for(KernelId id,
                                 backends::ScatterStrategy strategy) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  const int want = static_cast<int>(strategy);
  const int arm = best_arm(s, [&](int a) { return arm_strategy(a) == want; });
  return arm >= 0 ? config_of(s.arm_best[static_cast<std::size_t>(arm)])
                  : KernelConfig{};
}

double Autotuner::best_median_for(KernelId id,
                                  backends::ScatterStrategy strategy) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  const int want = static_cast<int>(strategy);
  const int arm = best_arm(s, [&](int a) { return arm_strategy(a) == want; });
  return arm >= 0 ? s.arm_median[static_cast<std::size_t>(arm)]
                  : std::numeric_limits<double>::infinity();
}

KernelConfig Autotuner::best_for_layout(
    KernelId id, backends::StorageLayout layout) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  const int want = static_cast<int>(layout);
  const int arm = best_arm(s, [&](int a) { return arm_layout(a) == want; });
  return arm >= 0 ? config_of(s.arm_best[static_cast<std::size_t>(arm)])
                  : KernelConfig{};
}

double Autotuner::best_median_for_layout(
    KernelId id, backends::StorageLayout layout) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  const int want = static_cast<int>(layout);
  const int arm = best_arm(s, [&](int a) { return arm_layout(a) == want; });
  return arm >= 0 ? s.arm_median[static_cast<std::size_t>(arm)]
                  : std::numeric_limits<double>::infinity();
}

KernelConfig Autotuner::best_for_precision(
    KernelId id, backends::Precision precision) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  const int want = static_cast<int>(precision);
  const int arm =
      best_arm(s, [&](int a) { return arm_precision(a) == want; });
  return arm >= 0 ? config_of(s.arm_best[static_cast<std::size_t>(arm)])
                  : KernelConfig{};
}

double Autotuner::best_median_for_precision(
    KernelId id, backends::Precision precision) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const KernelSearch& s = search_[static_cast<std::size_t>(id)];
  const int want = static_cast<int>(precision);
  const int arm =
      best_arm(s, [&](int a) { return arm_precision(a) == want; });
  return arm >= 0 ? s.arm_median[static_cast<std::size_t>(arm)]
                  : std::numeric_limits<double>::infinity();
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
    out.push_back(static_cast<real>(static_cast<int>(cfg.strategy)));
    out.push_back(static_cast<real>(static_cast<int>(cfg.layout)));
    out.push_back(static_cast<real>(static_cast<int>(cfg.precision)));
  }
  return out;
}

backends::TuningTable decode_table(std::span<const real> data) {
  GAIA_CHECK(data.size() == kEncodedTableSize,
             "decode_table: wrong element count");
  backends::TuningTable table;
  std::size_t i = 0;
  for (backends::KernelId id : backends::all_kernels()) {
    const auto strategy = static_cast<int>(data[i + 2]);
    GAIA_CHECK(strategy >= 0 && strategy < backends::kNumScatterStrategies,
               "decode_table: unknown scatter strategy");
    const auto layout = static_cast<int>(data[i + 3]);
    GAIA_CHECK(layout >= 0 && layout < backends::kNumStorageLayouts,
               "decode_table: unknown storage layout");
    const auto precision = static_cast<int>(data[i + 4]);
    GAIA_CHECK(precision >= 0 && precision < backends::kNumPrecisions,
               "decode_table: unknown storage precision");
    KernelConfig cfg{static_cast<std::int32_t>(data[i]),
                     static_cast<std::int32_t>(data[i + 1]),
                     static_cast<backends::ScatterStrategy>(strategy),
                     static_cast<backends::StorageLayout>(layout),
                     static_cast<backends::Precision>(precision)};
    table.set(id, cfg);
    i += 5;
  }
  return table;
}

}  // namespace gaia::tuning
