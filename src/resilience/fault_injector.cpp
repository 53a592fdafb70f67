#include "resilience/fault_injector.hpp"

#include <cctype>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace gaia::resilience {

namespace {

std::optional<FaultSite> parse_site(std::string_view name) {
  if (name == "kernel") return FaultSite::kKernel;
  if (name == "h2d") return FaultSite::kH2D;
  if (name == "d2h") return FaultSite::kD2H;
  if (name == "rank") return FaultSite::kRank;
  if (name == "ckpt" || name == "checkpoint") return FaultSite::kCheckpoint;
  if (name == "sdc") return FaultSite::kSdc;
  return std::nullopt;
}

/// Uniform [0,1) from (seed, site, event index): one SplitMix64 step.
double event_uniform(std::uint64_t seed, FaultSite site,
                     std::int64_t event) {
  util::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(site) + 1) *
                                 0x9e3779b97f4a7c15ull ^
                      static_cast<std::uint64_t>(event));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// Positioned parse failure: every grammar error names the offending
/// clause *and* its byte offset within the spec, so a typo in a
/// --faults campaign dies loudly instead of running healthy.
[[noreturn]] void fail_at(std::size_t offset, const std::string& clause_text,
                          const std::string& why) {
  throw Error("fault spec error at offset " + std::to_string(offset) +
              " in clause '" + clause_text + "': " + why);
}

/// Strict full-string numeric parses: "0.5x" or "12abc" are grammar
/// errors, not the silently truncated values std::stod/stoll would give.
double parse_probability(std::size_t offset, const std::string& clause_text,
                         const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size())
    fail_at(offset, clause_text, "malformed probability '" + value + "'");
  if (!(p >= 0 && p <= 1))
    fail_at(offset, clause_text,
            "probability " + value + " out of [0,1]");
  return p;
}

std::int64_t parse_int_field(std::size_t offset,
                             const std::string& clause_text,
                             const std::string& key,
                             const std::string& value) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size())
    fail_at(offset, clause_text,
            "malformed integer '" + value + "' for field '" + key + "'");
  return static_cast<std::int64_t>(v);
}

}  // namespace

std::string to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kKernel:
      return "kernel";
    case FaultSite::kH2D:
      return "h2d";
    case FaultSite::kD2H:
      return "d2h";
    case FaultSite::kRank:
      return "rank";
    case FaultSite::kCheckpoint:
      return "ckpt";
    case FaultSite::kSdc:
      return "sdc";
  }
  return "unknown";
}

FaultSpec parse_fault_spec(std::string_view spec,
                           std::uint64_t default_seed) {
  FaultSpec result;
  result.seed = default_seed;
  // Clauses are walked by offset (not via util::split) so every error
  // can report where in the spec it sits.
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::size_t raw_begin = pos;
    std::string_view raw = spec.substr(pos, end - pos);
    pos = end + 1;

    // Offset of the trimmed clause within the full spec.
    std::size_t lead = 0;
    while (lead < raw.size() &&
           std::isspace(static_cast<unsigned char>(raw[lead])))
      ++lead;
    const std::size_t offset = raw_begin + lead;
    const std::string clause_text = util::trim(raw);
    if (clause_text.empty()) continue;

    // Global `seed=N` clause (no site prefix).
    if (clause_text.rfind("seed=", 0) == 0) {
      result.seed = static_cast<std::uint64_t>(parse_int_field(
          offset, clause_text, "seed", clause_text.substr(5)));
      continue;
    }

    const auto colon = clause_text.find(':');
    if (colon == std::string::npos)
      fail_at(offset, clause_text, "missing ':' after the fault site");
    const std::string site_name = util::trim(clause_text.substr(0, colon));
    const auto site = parse_site(site_name);
    if (!site.has_value())
      fail_at(offset, clause_text, "unknown fault site '" + site_name + "'");

    FaultClause clause;
    clause.site = *site;
    // One-shot by default for the targeted clauses: a rank dies once, an
    // SDC flip lands once — replay after a rollback must run clean.
    if (clause.site == FaultSite::kRank || clause.site == FaultSite::kSdc)
      clause.max_count = 1;

    for (const std::string& raw_field :
         util::split(clause_text.substr(colon + 1), ',')) {
      const std::string field = util::trim(raw_field);
      if (field.empty()) continue;
      const auto eq = field.find('=');
      const std::string key =
          eq == std::string::npos ? field : util::trim(field.substr(0, eq));
      const std::string value =
          eq == std::string::npos ? "" : util::trim(field.substr(eq + 1));

      if (key == "p") {
        clause.probability = parse_probability(offset, clause_text, value);
      } else if (key == "backend") {
        clause.backend = value;
      } else if (key == "count") {
        clause.max_count = parse_int_field(offset, clause_text, key, value);
      } else if (key == "nth") {
        clause.nth = parse_int_field(offset, clause_text, key, value);
      } else if (key == "rank") {
        clause.rank = parse_int_field(offset, clause_text, key, value);
      } else if (key == "iter") {
        clause.iteration = parse_int_field(offset, clause_text, key, value);
      } else if (key == "kernel") {
        if (value.empty())
          fail_at(offset, clause_text, "kernel= needs a kernel name");
        clause.kernel = value;
      } else if (key == "bit") {
        const std::int64_t bit =
            parse_int_field(offset, clause_text, key, value);
        if (bit < 0 || bit > 63)
          fail_at(offset, clause_text,
                  "bit " + value + " out of [0,63]");
        clause.bit = static_cast<int>(bit);
      } else if (key == "index") {
        clause.index = parse_int_field(offset, clause_text, key, value);
        if (clause.index < 0)
          fail_at(offset, clause_text, "index must be >= 0");
      } else if (key == "mode") {
        if (value == "fail") {
          clause.transfer_mode = TransferFault::kFail;
        } else if (value == "corrupt") {
          clause.transfer_mode = TransferFault::kCorrupt;
        } else {
          fail_at(offset, clause_text,
                  "unknown transfer mode '" + value + "'");
        }
      } else if (key == "truncate") {
        clause.ckpt_mode = CheckpointFault::kTruncate;
      } else if (key == "bitflip") {
        clause.ckpt_mode = CheckpointFault::kBitflip;
      } else {
        fail_at(offset, clause_text, "unknown field '" + key + "'");
      }
    }

    if (clause.site == FaultSite::kRank &&
        (clause.rank < 0 || clause.iteration < 1))
      fail_at(offset, clause_text, "rank clause needs rank= and iter=");
    if (clause.site == FaultSite::kSdc) {
      if (clause.kernel.empty() || clause.iteration < 1)
        fail_at(offset, clause_text, "sdc clause needs kernel= and iter=");
      if (clause.rank < 0) clause.rank = 0;
    }
    result.clauses.push_back(clause);
  }
  return result;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const FaultSpec& spec) {
  armed_.store(false, std::memory_order_relaxed);
  clauses_.clear();
  seed_ = spec.seed;
  for (const FaultClause& clause : spec.clauses) {
    auto state = std::make_unique<ClauseState>();
    state->clause = clause;
    clauses_.push_back(std::move(state));
  }
  for (auto& count : injected_by_site_)
    count.store(0, std::memory_order_relaxed);
  if (!clauses_.empty()) armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::configure(const std::string& spec, std::uint64_t seed) {
  configure(parse_fault_spec(spec, seed));
}

void FaultInjector::disarm() {
  armed_.store(false, std::memory_order_relaxed);
  clauses_.clear();
}

bool FaultInjector::draw(ClauseState& state) {
  const FaultClause& clause = state.clause;
  const std::int64_t event =
      state.events.fetch_add(1, std::memory_order_relaxed);
  if (clause.max_count >= 0 &&
      state.fired.load(std::memory_order_relaxed) >= clause.max_count)
    return false;
  if (event_uniform(seed_, clause.site, event) >= clause.probability)
    return false;
  if (clause.max_count >= 0 &&
      state.fired.fetch_add(1, std::memory_order_relaxed) >=
          clause.max_count) {
    return false;  // lost the race for the last allowed injection
  }
  if (clause.max_count < 0) state.fired.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FaultInjector::record_injection(FaultSite site,
                                     const std::string& detail) {
  injected_by_site_[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  auto& rec = obs::TraceRecorder::current();
  if (rec.enabled()) {
    rec.instant("fault." + to_string(site), "resilience",
                obs::TraceRecorder::kMainTrack, {{"detail", detail}});
  }
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("resilience.faults." + to_string(site)).add(1);
  }
}

bool FaultInjector::should_fail_kernel(std::string_view kernel,
                                       std::string_view backend) {
  if (!armed()) return false;
  for (auto& state : clauses_) {
    const FaultClause& clause = state->clause;
    if (clause.site != FaultSite::kKernel) continue;
    if (!clause.backend.empty() && clause.backend != backend) continue;
    if (draw(*state)) {
      record_injection(FaultSite::kKernel,
                       std::string(kernel) + " on " + std::string(backend));
      return true;
    }
  }
  return false;
}

TransferFault FaultInjector::on_transfer(FaultSite site) {
  if (!armed()) return TransferFault::kNone;
  for (auto& state : clauses_) {
    const FaultClause& clause = state->clause;
    if (clause.site != site) continue;
    if (draw(*state)) {
      record_injection(site, clause.transfer_mode == TransferFault::kCorrupt
                                 ? "corrupt"
                                 : "fail");
      return clause.transfer_mode;
    }
  }
  return TransferFault::kNone;
}

void FaultInjector::maybe_kill_rank(int rank, std::int64_t iteration) {
  if (!armed()) return;
  for (auto& state : clauses_) {
    const FaultClause& clause = state->clause;
    if (clause.site != FaultSite::kRank) continue;
    if (clause.rank != rank || clause.iteration != iteration) continue;
    if (clause.max_count >= 0 &&
        state->fired.fetch_add(1, std::memory_order_relaxed) >=
            clause.max_count)
      continue;
    record_injection(FaultSite::kRank,
                     "rank " + std::to_string(rank) + " iteration " +
                         std::to_string(iteration));
    throw RankDeath(rank, iteration);
  }
}

std::optional<CheckpointFault> FaultInjector::on_checkpoint_write() {
  if (!armed()) return std::nullopt;
  for (auto& state : clauses_) {
    const FaultClause& clause = state->clause;
    if (clause.site != FaultSite::kCheckpoint) continue;
    const std::int64_t event =
        state->events.fetch_add(1, std::memory_order_relaxed) + 1;
    if (clause.nth >= 0 && event != clause.nth) continue;
    if (clause.max_count >= 0 &&
        state->fired.load(std::memory_order_relaxed) >= clause.max_count)
      continue;
    state->fired.fetch_add(1, std::memory_order_relaxed);
    record_injection(FaultSite::kCheckpoint,
                     clause.ckpt_mode == CheckpointFault::kTruncate
                         ? "truncate"
                         : "bitflip");
    return clause.ckpt_mode;
  }
  return std::nullopt;
}

std::optional<SdcFlip> FaultInjector::on_kernel_output(
    std::string_view kernel, std::int64_t iteration, int rank,
    std::size_t size) {
  if (!armed() || size == 0) return std::nullopt;
  for (auto& state : clauses_) {
    const FaultClause& clause = state->clause;
    if (clause.site != FaultSite::kSdc) continue;
    // `kernel=aprod2` hits the aprod2 output pass; a sub-kernel name
    // like `aprod2_att` also matches its pass (the flip lands in the
    // combined output vector — the finest silent granularity there is).
    const std::string_view wanted = clause.kernel;
    const bool name_match =
        wanted == kernel ||
        (wanted.size() > kernel.size() && wanted.rfind(kernel, 0) == 0 &&
         wanted[kernel.size()] == '_');
    if (!name_match) continue;
    if (clause.iteration != iteration || clause.rank != rank) continue;
    if (clause.max_count >= 0 &&
        state->fired.fetch_add(1, std::memory_order_relaxed) >=
            clause.max_count)
      continue;
    SdcFlip flip;
    flip.bit = clause.bit;
    if (clause.index >= 0) {
      flip.index = static_cast<std::size_t>(clause.index) % size;
    } else {
      // Seeded element draw: deterministic in (seed, iteration, rank).
      util::SplitMix64 sm(seed_ ^
                          (static_cast<std::uint64_t>(iteration) << 16) ^
                          static_cast<std::uint64_t>(rank + 1) *
                              0x9e3779b97f4a7c15ull);
      flip.index = static_cast<std::size_t>(sm.next() % size);
    }
    record_injection(FaultSite::kSdc,
                     std::string(kernel) + "[" + std::to_string(flip.index) +
                         "] bit " + std::to_string(flip.bit) + " rank " +
                         std::to_string(rank) + " iteration " +
                         std::to_string(iteration));
    return flip;
  }
  return std::nullopt;
}

std::uint64_t FaultInjector::injected(FaultSite site) const {
  return injected_by_site_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t total = 0;
  for (const auto& count : injected_by_site_)
    total += count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace gaia::resilience
