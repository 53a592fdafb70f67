#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace gaia::obs {

namespace {

struct Interval {
  double lo, hi;
};

/// Clips `iv` to [lo, hi]; empty intervals come back with lo >= hi.
Interval clip(Interval iv, double lo, double hi) {
  return {std::max(iv.lo, lo), std::min(iv.hi, hi)};
}

/// Sorts and merges overlapping intervals in place.
void normalize(std::vector<Interval>& ivs) {
  std::sort(ivs.begin(), ivs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::size_t out = 0;
  for (const Interval& iv : ivs) {
    if (iv.hi <= iv.lo) continue;
    if (out > 0 && iv.lo <= ivs[out - 1].hi)
      ivs[out - 1].hi = std::max(ivs[out - 1].hi, iv.hi);
    else
      ivs[out++] = iv;
  }
  ivs.resize(out);
}

double total_length(const std::vector<Interval>& ivs) {
  double sum = 0;
  for (const Interval& iv : ivs) sum += iv.hi - iv.lo;
  return sum;
}

/// Length of `ivs` not covered by the normalized `cover` set.
double uncovered_length(const std::vector<Interval>& ivs,
                        const std::vector<Interval>& cover) {
  double exposed = 0;
  for (const Interval& iv : ivs) {
    double cursor = iv.lo;
    for (const Interval& c : cover) {
      if (c.hi <= cursor) continue;
      if (c.lo >= iv.hi) break;
      exposed += std::max(0.0, std::min(c.lo, iv.hi) - cursor);
      cursor = std::max(cursor, c.hi);
      if (cursor >= iv.hi) break;
    }
    exposed += std::max(0.0, iv.hi - cursor);
  }
  return exposed;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

/// Top-level collective spans carry bare names ("allreduce",
/// "barrier"); their wait/exchange children are dotted.
bool is_comm_parent(const ParsedEvent& e) {
  return e.phase == 'X' && e.cat == "comm" &&
         e.name.find('.') == std::string::npos;
}

bool is_wait_child(const ParsedEvent& e) {
  return e.phase == 'X' && e.cat == "comm" && e.name.size() > 5 &&
         e.name.compare(e.name.size() - 5, 5, ".wait") == 0;
}

bool is_compute(const ParsedEvent& e) {
  return e.phase == 'X' && (e.cat == "kernel" || e.cat == "transfer");
}

std::int64_t iteration_number(const ParsedEvent& e) {
  if (const util::JsonValue* itn = e.args.find("itn");
      itn != nullptr && itn->is_number())
    return static_cast<std::int64_t>(itn->number);
  return -1;
}

}  // namespace

CritpathReport analyze_critpath(const TraceDoc& doc) {
  // Pass 1: per-rank iteration windows, keyed by iteration number.
  struct RankIteration {
    double start = 0, end = 0;
  };
  std::map<std::int64_t, std::map<std::int64_t, RankIteration>> iterations;
  std::set<std::int64_t> pids;
  for (const ParsedEvent& e : doc.events) {
    if (e.phase != 'X') continue;
    pids.insert(e.pid);
    if (e.name == "lsqr.iteration" && e.cat == "lsqr") {
      const std::int64_t itn = iteration_number(e);
      if (itn < 0) throw Error("critpath: lsqr.iteration span without itn arg");
      iterations[itn][e.pid] = {e.ts_us, e.ts_us + e.dur_us};
    }
  }
  if (iterations.empty())
    throw Error(
        "critpath: no lsqr.iteration spans in trace (was the run traced "
        "with iteration instrumentation?)");

  CritpathReport report;
  report.n_ranks = doc.n_ranks;
  report.dropped_events = doc.dropped_events;
  if (doc.merged) {
    report.ranks_present = doc.source_ranks;
  } else {
    for (const std::int64_t pid : pids)
      report.ranks_present.push_back(static_cast<int>(pid));
  }
  const int expected =
      doc.merged ? doc.n_ranks : static_cast<int>(report.ranks_present.size());

  std::vector<double> all_waits;
  report.complete = true;
  for (const auto& [itn, by_rank] : iterations) {
    IterationStats s;
    s.itn = itn;
    s.ranks_seen = static_cast<int>(by_rank.size());
    if (s.ranks_seen < expected) report.complete = false;

    double min_start = 0, max_start = 0, max_end = 0;
    bool first = true;
    for (const auto& [pid, window] : by_rank) {
      if (first) {
        min_start = max_start = window.start;
        max_end = window.end;
        first = false;
      } else {
        min_start = std::min(min_start, window.start);
        max_start = std::max(max_start, window.start);
        max_end = std::max(max_end, window.end);
      }
    }
    s.start_us = min_start;
    s.end_us = max_end;
    s.critical_path_us = max_end - min_start;
    s.skew_us = max_start - min_start;

    // Pass 2 per iteration: clip each rank's comm and compute spans to
    // its iteration window, then subtract compute cover from comm.
    double compute_sum = 0, compute_max = 0;
    std::vector<double> iter_waits;
    for (const auto& [pid, window] : by_rank) {
      std::vector<Interval> comm, compute;
      for (const ParsedEvent& e : doc.events) {
        if (e.pid != pid) continue;
        const Interval iv =
            clip({e.ts_us, e.ts_us + e.dur_us}, window.start, window.end);
        if (iv.hi <= iv.lo) continue;
        if (is_comm_parent(e)) comm.push_back(iv);
        else if (is_compute(e)) compute.push_back(iv);
        if (is_wait_child(e)) {
          iter_waits.push_back(e.dur_us);
          all_waits.push_back(e.dur_us);
        }
      }
      normalize(comm);
      normalize(compute);
      const double comm_len = total_length(comm);
      const double compute_len = total_length(compute);
      const double exposed = uncovered_length(comm, compute);
      s.comm_us_max = std::max(s.comm_us_max, comm_len);
      s.exposed_us_max = std::max(s.exposed_us_max, exposed);
      s.overlap_headroom_us =
          std::max(s.overlap_headroom_us, std::min(exposed, compute_len));
      compute_sum += compute_len;
      compute_max = std::max(compute_max, compute_len);
    }
    if (s.critical_path_us > 0)
      s.exposure_fraction = s.exposed_us_max / s.critical_path_us;
    if (compute_max > 0 && s.ranks_seen > 0)
      s.imbalance =
          1.0 - compute_sum / (static_cast<double>(s.ranks_seen) * compute_max);
    s.wait_p50_us = percentile(iter_waits, 0.50);
    s.wait_p95_us = percentile(iter_waits, 0.95);

    report.total_critical_path_us += s.critical_path_us;
    report.total_exposed_us += s.exposed_us_max;
    report.max_skew_us = std::max(report.max_skew_us, s.skew_us);
    report.iterations.push_back(s);
  }
  if (report.total_critical_path_us > 0)
    report.exposure_fraction =
        report.total_exposed_us / report.total_critical_path_us;
  report.wait_p50_us = percentile(all_waits, 0.50);
  report.wait_p95_us = percentile(all_waits, 0.95);
  return report;
}

std::vector<std::string> check_gates(const CritpathReport& report,
                                     const CritpathOptions& options) {
  std::vector<std::string> violations;
  char buf[160];
  if (!report.complete && !options.allow_partial)
    violations.emplace_back(
        "trace is partial: not every iteration has spans from all ranks "
        "(pass --allow-partial to accept)");
  if (options.max_exposure_fraction >= 0 &&
      report.exposure_fraction > options.max_exposure_fraction) {
    std::snprintf(buf, sizeof(buf),
                  "comm exposure %.4f exceeds gate %.4f",
                  report.exposure_fraction, options.max_exposure_fraction);
    violations.emplace_back(buf);
  }
  if (options.max_skew_us >= 0 && report.max_skew_us > options.max_skew_us) {
    std::snprintf(buf, sizeof(buf),
                  "iteration start skew %.1f us exceeds gate %.1f us",
                  report.max_skew_us, options.max_skew_us);
    violations.emplace_back(buf);
  }
  return violations;
}

std::string to_string(const CritpathReport& report) {
  std::ostringstream os;
  char line[256];
  os << "critical-path report: " << report.ranks_present.size() << "/"
     << report.n_ranks << " ranks, " << report.iterations.size()
     << " iterations" << (report.complete ? "" : " [PARTIAL]");
  if (report.dropped_events > 0)
    os << ", " << report.dropped_events << " dropped events";
  os << "\n";
  std::snprintf(line, sizeof(line), "%5s %12s %10s %10s %10s %8s %9s %9s\n",
                "itn", "critpath_us", "comm_us", "exposed_us", "skew_us",
                "imbal", "waitp50", "waitp95");
  os << line;
  for (const IterationStats& s : report.iterations) {
    std::snprintf(line, sizeof(line),
                  "%5lld %12.1f %10.1f %10.1f %10.1f %8.3f %9.1f %9.1f\n",
                  static_cast<long long>(s.itn), s.critical_path_us,
                  s.comm_us_max, s.exposed_us_max, s.skew_us, s.imbalance,
                  s.wait_p50_us, s.wait_p95_us);
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "total critical path %.1f us, exposed comm %.1f us "
                "(exposure %.4f), max skew %.1f us, wait p50/p95 %.1f/%.1f "
                "us\n",
                report.total_critical_path_us, report.total_exposed_us,
                report.exposure_fraction, report.max_skew_us,
                report.wait_p50_us, report.wait_p95_us);
  os << line;
  return os.str();
}

std::string to_json(const CritpathReport& report) {
  using util::json_number;
  std::ostringstream os;
  os << "{\"ranks\":" << report.n_ranks << ",\"ranks_present\":[";
  for (std::size_t i = 0; i < report.ranks_present.size(); ++i) {
    if (i) os << ',';
    os << report.ranks_present[i];
  }
  os << "],\"complete\":" << (report.complete ? "true" : "false")
     << ",\"dropped_events\":" << report.dropped_events
     << ",\"total_critical_path_us\":"
     << json_number(report.total_critical_path_us)
     << ",\"total_exposed_us\":" << json_number(report.total_exposed_us)
     << ",\"exposure_fraction\":" << json_number(report.exposure_fraction)
     << ",\"max_skew_us\":" << json_number(report.max_skew_us)
     << ",\"wait_p50_us\":" << json_number(report.wait_p50_us)
     << ",\"wait_p95_us\":" << json_number(report.wait_p95_us)
     << ",\"iterations\":[";
  for (std::size_t i = 0; i < report.iterations.size(); ++i) {
    const IterationStats& s = report.iterations[i];
    if (i) os << ',';
    os << "{\"itn\":" << s.itn << ",\"ranks_seen\":" << s.ranks_seen
       << ",\"start_us\":" << json_number(s.start_us)
       << ",\"end_us\":" << json_number(s.end_us)
       << ",\"critical_path_us\":" << json_number(s.critical_path_us)
       << ",\"skew_us\":" << json_number(s.skew_us)
       << ",\"comm_us_max\":" << json_number(s.comm_us_max)
       << ",\"exposed_us_max\":" << json_number(s.exposed_us_max)
       << ",\"exposure_fraction\":" << json_number(s.exposure_fraction)
       << ",\"imbalance\":" << json_number(s.imbalance)
       << ",\"overlap_headroom_us\":" << json_number(s.overlap_headroom_us)
       << ",\"wait_p50_us\":" << json_number(s.wait_p50_us)
       << ",\"wait_p95_us\":" << json_number(s.wait_p95_us) << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace gaia::obs
