#include "obs/trace_merge.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace gaia::obs {

namespace {

using util::JsonValue;

[[noreturn]] void fail(const std::string& what) {
  throw Error("trace: " + what);
}

double require_number(const JsonValue& obj, const char* key,
                      const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number())
    fail(where + ": missing or non-numeric \"" + key + "\"");
  return v->number;
}

std::string require_string(const JsonValue& obj, const char* key,
                           const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string())
    fail(where + ": missing or non-string \"" + key + "\"");
  return v->string;
}

ParsedEvent parse_event(const JsonValue& v, std::size_t index) {
  const std::string where = "event #" + std::to_string(index);
  if (!v.is_object()) fail(where + ": not an object");
  ParsedEvent e;
  e.name = require_string(v, "name", where);
  e.cat = require_string(v, "cat", where);
  const std::string ph = require_string(v, "ph", where);
  if (ph.size() != 1) fail(where + ": phase must be a single character");
  e.phase = ph[0];
  // The recorder emits only complete spans, instants, counters and
  // metadata. Anything else — notably unmatched 'B'/'E' begin/end pairs
  // from a torn writer — is rejected.
  if (e.phase != 'X' && e.phase != 'i' && e.phase != 'I' &&
      e.phase != 'C' && e.phase != 'M')
    fail(where + ": unsupported phase '" + ph + "'");
  e.ts_us = require_number(v, "ts", where);
  e.pid = static_cast<std::int64_t>(require_number(v, "pid", where));
  e.tid = static_cast<std::int64_t>(require_number(v, "tid", where));
  if (e.phase == 'X') e.dur_us = require_number(v, "dur", where);
  if (const JsonValue* args = v.find("args")) {
    if (!args->is_object()) fail(where + ": \"args\" is not an object");
    e.args = *args;
  }
  return e;
}

}  // namespace

TraceDoc parse_trace_json(const std::string& text) {
  const JsonValue root = util::parse_json(text);
  if (!root.is_object()) fail("document root is not an object");
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array())
    fail("missing \"traceEvents\" array");

  TraceDoc doc;
  if (const JsonValue* other = root.find("otherData")) {
    if (!other->is_object()) fail("\"otherData\" is not an object");
    doc.rank = static_cast<int>(other->number_or("rank", -1));
    doc.n_ranks = static_cast<int>(other->number_or("ranks", 1));
    doc.epoch_offset_us = other->number_or("epoch_offset_us", 0);
    doc.dropped_events =
        static_cast<std::uint64_t>(other->number_or("dropped_events", 0));
    if (const JsonValue* merged = other->find("merged"))
      doc.merged = merged->is_bool() && merged->boolean;
    if (const JsonValue* ranks = other->find("source_ranks");
        ranks != nullptr && ranks->is_array()) {
      for (const JsonValue& r : ranks->array)
        if (r.is_number()) doc.source_ranks.push_back(static_cast<int>(r.number));
    }
  }
  doc.events.reserve(events->array.size());
  for (std::size_t i = 0; i < events->array.size(); ++i)
    doc.events.push_back(parse_event(events->array[i], i));
  return doc;
}

TraceDoc parse_trace_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) fail("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  if (f.bad()) fail("read failed for " + path);
  try {
    return parse_trace_json(buf.str());
  } catch (const Error& e) {
    fail(path + ": " + e.what());
  }
}

void validate_trace(const TraceDoc& doc) {
  // Per-track state: a stack of open-span end times (nest check) and the
  // last instant/counter timestamp (order check).
  struct TrackState {
    std::vector<double> span_ends;
    double last_point_ts = -1;
  };
  // Boundary ties are legitimate (the wait child of a collective ends
  // exactly where the exchange child begins), so comparisons get a
  // half-microsecond grace.
  constexpr double kTolUs = 0.5;

  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<const ParsedEvent*>>
      spans_by_track;
  std::map<std::pair<std::int64_t, std::int64_t>, TrackState> tracks;

  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    const ParsedEvent& e = doc.events[i];
    const std::string where =
        "event #" + std::to_string(i) + " (\"" + e.name + "\")";
    if (!std::isfinite(e.ts_us)) fail(where + ": non-finite timestamp");
    if (e.phase == 'X') {
      if (!std::isfinite(e.dur_us) || e.dur_us < 0)
        fail(where + ": negative or non-finite duration");
      spans_by_track[{e.pid, e.tid}].push_back(&e);
    } else if (e.phase == 'i' || e.phase == 'I' || e.phase == 'C') {
      TrackState& t = tracks[{e.pid, e.tid}];
      if (e.ts_us + kTolUs < t.last_point_ts)
        fail(where + ": timestamp moves backwards on its track");
      t.last_point_ts = std::max(t.last_point_ts, e.ts_us);
    }
  }

  // Spans on one track must nest or be disjoint — a partially
  // overlapping pair means interleaved writers or a corrupted file.
  for (auto& [track, spans] : spans_by_track) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const ParsedEvent* a, const ParsedEvent* b) {
                       if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                       return a->dur_us > b->dur_us;  // parents first
                     });
    std::vector<double> open;  // end times of enclosing spans
    for (const ParsedEvent* s : spans) {
      while (!open.empty() && open.back() <= s->ts_us + kTolUs)
        open.pop_back();
      const double end = s->ts_us + s->dur_us;
      if (!open.empty() && end > open.back() + kTolUs)
        fail("span \"" + s->name + "\" on pid " + std::to_string(track.first) +
             " tid " + std::to_string(track.second) +
             " partially overlaps an enclosing span");
      open.push_back(end);
    }
  }
}

TraceDoc merge_traces(const std::vector<TraceDoc>& docs) {
  if (docs.empty()) fail("merge: no input documents");
  TraceDoc out;
  out.merged = true;
  out.rank = -1;
  out.n_ranks = docs.front().n_ranks;
  std::set<int> seen;
  std::size_t total = 0;
  for (const TraceDoc& d : docs) total += d.events.size();
  out.events.reserve(total);
  for (const TraceDoc& d : docs) {
    if (d.rank < 0) fail("merge: input document has no rank identity");
    if (d.n_ranks != out.n_ranks)
      fail("merge: world-size mismatch (" + std::to_string(d.n_ranks) +
           " vs " + std::to_string(out.n_ranks) + ")");
    if (!seen.insert(d.rank).second)
      fail("merge: duplicate rank " + std::to_string(d.rank));
    out.source_ranks.push_back(d.rank);
    out.dropped_events += d.dropped_events;
    for (const ParsedEvent& e : d.events) {
      ParsedEvent shifted = e;
      shifted.pid = d.rank;
      shifted.ts_us += d.epoch_offset_us;
      out.events.push_back(std::move(shifted));
    }
  }
  std::sort(out.source_ranks.begin(), out.source_ranks.end());
  return out;
}

std::string trace_json(const TraceDoc& doc) {
  using util::json_number;
  using util::json_quote;
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"rank\":" << doc.rank
     << ",\"ranks\":" << doc.n_ranks
     << ",\"epoch_offset_us\":" << json_number(doc.epoch_offset_us)
     << ",\"dropped_events\":" << doc.dropped_events;
  if (doc.merged) {
    os << ",\"merged\":true,\"source_ranks\":[";
    for (std::size_t i = 0; i < doc.source_ranks.size(); ++i) {
      if (i) os << ',';
      os << doc.source_ranks[i];
    }
    os << ']';
  }
  os << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    const ParsedEvent& e = doc.events[i];
    if (i) os << ',';
    os << "{\"name\":" << json_quote(e.name)
       << ",\"cat\":" << json_quote(e.cat)
       << ",\"ph\":" << json_quote({&e.phase, 1})
       << ",\"ts\":" << json_number(e.ts_us) << ",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid;
    if (e.phase == 'X') os << ",\"dur\":" << json_number(e.dur_us);
    if (e.args.is_object()) os << ",\"args\":" << e.args.dump();
    os << '}';
  }
  os << "]}";
  return os.str();
}

void write_trace(const TraceDoc& doc, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) fail("cannot open output: " + path);
  f << trace_json(doc);
  f.flush();
  if (!f.good()) fail("write failed: " + path);
}

}  // namespace gaia::obs
