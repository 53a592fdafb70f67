#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <utility>

#include "obs/export.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/framed_file.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace gaia::obs {

namespace {

/// Postmortem arming state (process-wide, mutex-protected — flushes run
/// from failure paths on arbitrary threads).
struct PostmortemState {
  std::mutex mutex;
  std::string dir;
  std::map<std::string, std::string> context;
};

PostmortemState& postmortem_state() {
  static PostmortemState state;
  return state;
}

std::string expect_string(const util::JsonValue& obj, const std::string& key,
                          const std::string& what) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string())
    throw Error("postmortem bundle: missing string '" + key + "' in " + what);
  return v->string;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

void FlightRecorder::record(std::string category, std::string name,
                            std::string detail, std::int64_t iteration,
                            int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  FlightEvent event;
  event.t_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            epoch_)
                  .count();
  event.seq = seq_++;
  event.rank = rank;
  event.iteration = iteration;
  event.category = std::move(category);
  event.name = std::move(name);
  event.detail = std::move(detail);
  events_.push_back(std::move(event));
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {events_.begin(), events_.end()};
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void FlightRecorder::set_capacity(std::size_t max_events) {
  if (max_events == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = max_events;
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  seq_ = 0;
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void flight_event(const char* category, const char* name,
                  const std::string& detail, std::int64_t iteration,
                  int rank) {
  FlightRecorder::global().record(category, name, detail, iteration, rank);
}

// ---------------------------------------------------------------------------
// Postmortem arming
// ---------------------------------------------------------------------------

void set_postmortem_dir(const std::string& dir) {
  PostmortemState& state = postmortem_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.dir = dir;
}

std::string postmortem_dir() {
  PostmortemState& state = postmortem_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.dir;
}

void set_postmortem_context(const std::string& key, const std::string& value) {
  PostmortemState& state = postmortem_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (value.empty())
    state.context.erase(key);
  else
    state.context[key] = value;
}

void clear_postmortem_context() {
  PostmortemState& state = postmortem_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.context.clear();
}

std::map<std::string, std::string> postmortem_context() {
  PostmortemState& state = postmortem_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.context;
}

// ---------------------------------------------------------------------------
// Bundle collection
// ---------------------------------------------------------------------------

PostmortemBundle collect_postmortem(const PostmortemInfo& info,
                                    std::size_t trace_tail_events) {
  PostmortemBundle bundle;
  bundle.info = info;
  bundle.context = postmortem_context();

  FlightRecorder& flight = FlightRecorder::global();
  bundle.events = flight.events();
  bundle.events_dropped = flight.dropped();

  bundle.metrics = MetricsRegistry::global().snapshot();

  TraceRecorder& trace = TraceRecorder::current();
  bundle.trace_dropped = trace.dropped_events();
  std::vector<TraceEvent> trace_events = trace.events();
  const std::size_t n =
      std::min(trace_tail_events, trace_events.size());
  bundle.trace_tail.reserve(n);
  for (std::size_t i = trace_events.size() - n; i < trace_events.size();
       ++i) {
    const TraceEvent& e = trace_events[i];
    PostmortemTraceEvent t;
    t.name = e.name;
    t.cat = e.cat;
    t.phase = e.phase;
    t.ts_us = e.ts_us;
    t.dur_us = e.dur_us;
    bundle.trace_tail.push_back(std::move(t));
  }

  if (TelemetrySampler* sampler = TelemetrySampler::active())
    bundle.telemetry_tail = sampler->ring_tail(64);

  return bundle;
}

// ---------------------------------------------------------------------------
// Bundle JSON
// ---------------------------------------------------------------------------

std::string postmortem_json(const PostmortemBundle& bundle) {
  using util::json_number;
  using util::json_quote;
  std::ostringstream os;
  os << "{\"version\":" << bundle.version << ",\"kind\":\"postmortem\"";
  os << ",\"info\":{\"reason\":" << json_quote(bundle.info.reason)
     << ",\"detail\":" << json_quote(bundle.info.detail)
     << ",\"rank\":" << bundle.info.rank
     << ",\"ranks\":" << bundle.info.ranks << '}';

  os << ",\"context\":{";
  bool first = true;
  for (const auto& [key, value] : bundle.context) {
    if (!first) os << ',';
    first = false;
    os << json_quote(key) << ':' << json_quote(value);
  }
  os << '}';

  os << ",\"events_dropped\":" << bundle.events_dropped << ",\"events\":[";
  first = true;
  for (const FlightEvent& e : bundle.events) {
    if (!first) os << ',';
    first = false;
    os << "{\"t_s\":" << json_number(e.t_s) << ",\"seq\":" << e.seq
       << ",\"rank\":" << e.rank << ",\"iteration\":" << e.iteration
       << ",\"category\":" << json_quote(e.category)
       << ",\"name\":" << json_quote(e.name)
       << ",\"detail\":" << json_quote(e.detail) << '}';
  }
  os << ']';

  os << ",\"metrics\":[";
  first = true;
  for (const MetricRow& m : bundle.metrics) {
    if (!first) os << ',';
    first = false;
    os << metric_row_json(m);
  }
  os << ']';

  os << ",\"trace_dropped\":" << bundle.trace_dropped << ",\"trace_tail\":[";
  first = true;
  for (const PostmortemTraceEvent& t : bundle.trace_tail) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":" << json_quote(t.name)
       << ",\"cat\":" << json_quote(t.cat)
       << ",\"ph\":" << json_quote({&t.phase, 1})
       << ",\"ts\":" << json_number(t.ts_us)
       << ",\"dur\":" << json_number(t.dur_us) << '}';
  }
  os << ']';

  os << ",\"telemetry_tail\":[";
  first = true;
  for (const std::string& line : bundle.telemetry_tail) {
    if (!first) os << ',';
    first = false;
    os << json_quote(line);
  }
  os << "]}";
  return std::move(os).str();
}

PostmortemBundle parse_postmortem_json(const std::string& text) {
  const util::JsonValue doc = util::parse_json(text);
  if (!doc.is_object())
    throw Error("postmortem bundle: top-level value is not an object");
  const int version =
      static_cast<int>(doc.number_or("version", -1));
  if (version != kPostmortemVersion)
    throw Error("postmortem bundle: unsupported version " +
                std::to_string(version));

  PostmortemBundle bundle;
  bundle.version = version;

  const util::JsonValue* info = doc.find("info");
  if (info == nullptr || !info->is_object())
    throw Error("postmortem bundle: missing 'info' object");
  bundle.info.reason = expect_string(*info, "reason", "info");
  bundle.info.detail = expect_string(*info, "detail", "info");
  bundle.info.rank = static_cast<int>(info->number_or("rank", -1));
  bundle.info.ranks = static_cast<int>(info->number_or("ranks", 1));

  if (const util::JsonValue* ctx = doc.find("context");
      ctx != nullptr && ctx->is_object()) {
    for (const auto& [key, value] : ctx->object) {
      if (!value.is_string())
        throw Error("postmortem bundle: context value for '" + key +
                    "' is not a string");
      bundle.context[key] = value.string;
    }
  }

  bundle.events_dropped =
      static_cast<std::uint64_t>(doc.number_or("events_dropped", 0));
  if (const util::JsonValue* events = doc.find("events");
      events != nullptr && events->is_array()) {
    bundle.events.reserve(events->array.size());
    for (const util::JsonValue& e : events->array) {
      if (!e.is_object())
        throw Error("postmortem bundle: event is not an object");
      FlightEvent event;
      event.t_s = e.number_or("t_s", 0);
      event.seq = static_cast<std::uint64_t>(e.number_or("seq", 0));
      event.rank = static_cast<int>(e.number_or("rank", -1));
      event.iteration =
          static_cast<std::int64_t>(e.number_or("iteration", -1));
      event.category = expect_string(e, "category", "event");
      event.name = expect_string(e, "name", "event");
      event.detail = expect_string(e, "detail", "event");
      bundle.events.push_back(std::move(event));
    }
  }

  if (const util::JsonValue* metrics = doc.find("metrics");
      metrics != nullptr && metrics->is_array()) {
    bundle.metrics.reserve(metrics->array.size());
    for (const util::JsonValue& m : metrics->array)
      bundle.metrics.push_back(parse_metric_row(m));
  }

  bundle.trace_dropped =
      static_cast<std::uint64_t>(doc.number_or("trace_dropped", 0));
  if (const util::JsonValue* tail = doc.find("trace_tail");
      tail != nullptr && tail->is_array()) {
    bundle.trace_tail.reserve(tail->array.size());
    for (const util::JsonValue& t : tail->array) {
      if (!t.is_object())
        throw Error("postmortem bundle: trace event is not an object");
      PostmortemTraceEvent event;
      event.name = expect_string(t, "name", "trace event");
      event.cat = expect_string(t, "cat", "trace event");
      const std::string phase = expect_string(t, "ph", "trace event");
      event.phase = phase.empty() ? 'X' : phase[0];
      event.ts_us = t.number_or("ts", 0);
      event.dur_us = t.number_or("dur", 0);
      bundle.trace_tail.push_back(std::move(event));
    }
  }

  if (const util::JsonValue* tail = doc.find("telemetry_tail");
      tail != nullptr && tail->is_array()) {
    bundle.telemetry_tail.reserve(tail->array.size());
    for (const util::JsonValue& line : tail->array) {
      if (!line.is_string())
        throw Error("postmortem bundle: telemetry line is not a string");
      bundle.telemetry_tail.push_back(line.string);
    }
  }

  return bundle;
}

// ---------------------------------------------------------------------------
// Bundle files
// ---------------------------------------------------------------------------

void write_postmortem_file(const std::string& path,
                           const PostmortemBundle& bundle) {
  util::write_framed_file(path, postmortem_json(bundle),
                          "postmortem bundle");
}

PostmortemBundle read_postmortem_file(const std::string& path) {
  return parse_postmortem_json(
      util::read_framed_file(path, "postmortem bundle"));
}

std::string flush_postmortem(const PostmortemInfo& info,
                             const std::string& filename) {
  const std::string dir = postmortem_dir();
  if (dir.empty()) return "";
  try {
    std::string name = filename;
    if (name.empty()) {
      name = info.rank >= 0
                 ? "postmortem.rank" + std::to_string(info.rank) + ".json"
                 : "postmortem.json";
    }
    fs::create_directories(dir);
    const std::string path = (fs::path(dir) / name).string();
    write_postmortem_file(path, collect_postmortem(info));
    std::cerr << "[gaia] postmortem bundle sealed: " << path << " (reason "
              << info.reason << ")\n";
    return path;
  } catch (const std::exception& e) {
    std::cerr << "[gaia] postmortem flush failed: " << e.what() << '\n';
    return "";
  }
}

}  // namespace gaia::obs
