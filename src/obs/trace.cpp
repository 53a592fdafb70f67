#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace gaia::obs {

namespace {

/// JSON string escaping (control characters, quotes, backslash).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  // JSON has no inf/nan; clamp non-finite values to 0.
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

thread_local TraceRecorder* t_thread_recorder = nullptr;

}  // namespace

TraceArg::TraceArg(std::string key, const std::string& value)
    : key_(std::move(key)), json_value_('"' + json_escape(value) + '"') {}
TraceArg::TraceArg(std::string key, const char* value)
    : TraceArg(std::move(key), std::string(value)) {}
TraceArg::TraceArg(std::string key, double value)
    : key_(std::move(key)), json_value_(json_number(value)) {}
TraceArg::TraceArg(std::string key, std::int64_t value)
    : key_(std::move(key)), json_value_(std::to_string(value)) {}
TraceArg::TraceArg(std::string key, std::uint64_t value)
    : key_(std::move(key)), json_value_(std::to_string(value)) {}

void TraceRecorder::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  if (enabled) name_track(kMainTrack, "main");
}

double TraceRecorder::now_us() const {
  return to_us(std::chrono::steady_clock::now());
}

double TraceRecorder::to_us(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::chrono::steady_clock::time_point TraceRecorder::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void TraceRecorder::set_rank(int rank, int n_ranks) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rank_ = rank;
    n_ranks_ = n_ranks;
    pid_ = rank;
  }
  if (!enabled()) return;
  TraceEvent e;
  e.name = "process_name";
  e.cat = "__metadata";
  e.phase = 'M';
  e.ts_us = 0;
  e.tid = kMainTrack;
  e.args.emplace_back("name", "rank " + std::to_string(rank));
  std::lock_guard<std::mutex> lock(mutex_);
  push_locked(std::move(e));
}

int TraceRecorder::rank() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rank_;
}

int TraceRecorder::n_ranks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_ranks_;
}

void TraceRecorder::set_epoch_offset_us(double offset_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_offset_us_ = offset_us;
}

double TraceRecorder::epoch_offset_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_offset_us_;
}

void TraceRecorder::set_capacity(std::size_t max_events) {
  if (max_events == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = max_events;
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::uint64_t TraceRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void TraceRecorder::push_locked(TraceEvent event) {
  if (events_.size() >= capacity_) {
    // Drop-oldest: a long run keeps its most recent window. A dropped
    // track-name record may be re-announced later (name_track consults
    // named_tracks_, which we roll back here).
    const TraceEvent& oldest = events_.front();
    if (oldest.phase == 'M' && oldest.name == "thread_name")
      named_tracks_.erase(oldest.tid);
    events_.pop_front();
    ++dropped_;
    auto& reg = MetricsRegistry::global();
    if (reg.enabled()) reg.counter("trace.dropped_events").add(1);
  }
  events_.push_back(std::move(event));
}

void TraceRecorder::complete(std::string name, std::string cat, double ts_us,
                             double dur_us, std::int32_t tid,
                             std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e{std::move(name), std::move(cat), 'X', ts_us, dur_us, tid,
               std::move(args)};
  std::lock_guard<std::mutex> lock(mutex_);
  push_locked(std::move(e));
}

void TraceRecorder::instant(std::string name, std::string cat,
                            std::int32_t tid, std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent e{std::move(name), std::move(cat), 'i', now_us(), 0, tid,
               std::move(args)};
  std::lock_guard<std::mutex> lock(mutex_);
  push_locked(std::move(e));
}

void TraceRecorder::counter(std::string name, double ts_us, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'C';
  e.cat = "counter";
  e.ts_us = ts_us;
  e.tid = kMainTrack;
  e.args.emplace_back(name, value);
  e.name = std::move(name);
  std::lock_guard<std::mutex> lock(mutex_);
  push_locked(std::move(e));
}

void TraceRecorder::name_track(std::int32_t tid, const std::string& name) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = "thread_name";
  e.cat = "__metadata";
  e.phase = 'M';
  e.ts_us = 0;
  e.tid = tid;
  e.args.emplace_back("name", name);
  std::lock_guard<std::mutex> lock(mutex_);
  // One metadata record per track: callers may re-announce freely.
  if (!named_tracks_.insert(tid).second) return;
  push_locked(std::move(e));
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {events_.begin(), events_.end()};
}

void TraceRecorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  named_tracks_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

std::string TraceRecorder::json() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void TraceRecorder::write(std::ostream& os) const {
  std::vector<TraceEvent> snapshot;
  std::int32_t pid;
  int rank, n_ranks;
  double offset;
  std::uint64_t dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(events_.begin(), events_.end());
    pid = pid_;
    rank = rank_;
    n_ranks = n_ranks_;
    offset = epoch_offset_us_;
    dropped = dropped_;
  }
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"rank\":" << rank
     << ",\"ranks\":" << n_ranks
     << ",\"epoch_offset_us\":" << json_number(offset)
     << ",\"dropped_events\":" << dropped << "},\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : snapshot) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.cat) << "\",\"ph\":\"" << e.phase
       << "\",\"ts\":" << json_number(e.ts_us) << ",\"pid\":" << pid
       << ",\"tid\":" << e.tid;
    if (e.phase == 'X') os << ",\"dur\":" << json_number(e.dur_us);
    if (!e.args.empty()) {
      os << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ',';
        os << '"' << json_escape(e.args[i].key())
           << "\":" << e.args[i].json_value();
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}";
}

void TraceRecorder::write(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  GAIA_CHECK(f.good(), "cannot open trace output: " + path);
  write(f);
  GAIA_CHECK(f.good(), "trace write failed: " + path);
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

TraceRecorder& TraceRecorder::current() {
  return t_thread_recorder ? *t_thread_recorder : global();
}

TraceRecorder* TraceRecorder::thread_recorder() { return t_thread_recorder; }

void TraceRecorder::set_thread_recorder(TraceRecorder* recorder) {
  t_thread_recorder = recorder;
}

}  // namespace gaia::obs
