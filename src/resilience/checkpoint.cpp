#include "resilience/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"
#include "util/error.hpp"
#include "util/framed_file.hpp"

namespace gaia::resilience {

namespace fs = std::filesystem;

namespace {

/// Applies an injected `ckpt:` corruption to the file just written.
void corrupt_file(const std::string& path, CheckpointFault mode) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return;
  if (mode == CheckpointFault::kTruncate) {
    fs::resize_file(path, size / 2, ec);
  } else {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    if (!f.good()) return;
    const auto offset = static_cast<std::streamoff>(size / 2);
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(offset);
    f.write(&byte, 1);
  }
}

}  // namespace

void note_resilience_event(const char* name, const std::string& detail) {
  auto& rec = obs::TraceRecorder::current();
  if (rec.enabled()) {
    rec.instant(name, "resilience", obs::TraceRecorder::kMainTrack,
                {{"detail", detail}});
  }
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) reg.counter(std::string("resilience.") + name).add(1);
  // Every resilience event is black-box-worthy: checkpoints, SDC
  // detections/repairs, rank-death recovery all funnel through here,
  // so one hook covers the postmortem timeline.
  obs::flight_event("resilience", name, detail);
}

void write_framed_file(const std::string& path, std::string_view payload) {
  util::write_framed_file(path, payload, "checkpoint");
}

std::string read_framed_file(const std::string& path) {
  return util::read_framed_file(path, "checkpoint");
}

bool verify_framed_file(const std::string& path) {
  return util::verify_framed_file(path);
}

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)) {
  GAIA_CHECK(config_.keep_last >= 1, "checkpoint keep_last must be >= 1");
  if (enabled()) fs::create_directories(config_.directory);
}

std::string CheckpointManager::write(std::int64_t iteration,
                                     std::string_view payload) {
  return write(iteration,
               [payload](util::FramedFileWriter& out) { out.append(payload); });
}

std::string CheckpointManager::write(std::int64_t iteration,
                                     const Body& body) {
  GAIA_CHECK(!config_.directory.empty(),
             "checkpoint manager has no directory configured");
  char name[64];
  std::snprintf(name, sizeof(name), "%s.%08lld.ckpt",
                config_.basename.c_str(),
                static_cast<long long>(iteration));
  const std::string path = (fs::path(config_.directory) / name).string();
  {
    auto& reg = obs::MetricsRegistry::global();
    const bool armed = reg.enabled();
    obs::ScopedTrace span("checkpoint.write", "resilience",
                          obs::TraceRecorder::kMainTrack, /*timed=*/armed);
    span.add_arg("iteration", static_cast<std::int64_t>(iteration));
    util::FramedFileWriter out(path, "checkpoint");
    body(out);
    out.commit();
    span.add_arg("bytes", out.size());
    const double seconds = span.stop();
    if (armed) {
      static obs::Histogram& times =
          reg.histogram("resilience.checkpoint.seconds");
      static obs::Histogram& sizes =
          reg.histogram("resilience.checkpoint.bytes");
      times.record(seconds);
      sizes.record(static_cast<double>(out.size()));
    }
  }
  ++written_;
  note_resilience_event("checkpoint.written", path);
  // The performance observatory's contract: a metrics snapshot is sealed
  // alongside every checkpoint, so a post-mortem of a killed run has
  // counters no staler than its newest checkpoint.
  obs::flush_global_snapshot();
  if (const auto fault = FaultInjector::global().on_checkpoint_write())
    corrupt_file(path, *fault);
  prune();
  return path;
}

std::vector<CheckpointInfo> CheckpointManager::list() const {
  std::vector<CheckpointInfo> found;
  if (config_.directory.empty()) return found;
  std::error_code ec;
  const std::string prefix = config_.basename + ".";
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string filename = entry.path().filename().string();
    if (filename.rfind(prefix, 0) != 0) continue;
    if (entry.path().extension() != ".ckpt") continue;
    const std::string middle = filename.substr(
        prefix.size(), filename.size() - prefix.size() - 5 /*.ckpt*/);
    try {
      found.push_back({entry.path().string(), std::stoll(middle)});
    } catch (const std::exception&) {
      continue;  // unrelated file matching the prefix
    }
  }
  std::sort(found.begin(), found.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.iteration > b.iteration;
            });
  return found;
}

std::optional<CheckpointInfo> CheckpointManager::resume(
    const std::function<void(const std::string& payload)>& restore,
    bool report) const {
  if (!enabled()) return std::nullopt;
  for (const CheckpointInfo& info : list()) {
    try {
      restore(read_framed_file(info.path));
      if (report) note_resilience_event("checkpoint.resumed", info.path);
      return info;
    } catch (const Error& e) {
      if (!report) continue;
      std::cerr << "warning: skipping checkpoint " << info.path << ": "
                << e.what() << '\n';
      note_resilience_event("checkpoint.skipped", info.path);
    }
  }
  return std::nullopt;
}

void CheckpointManager::prune() const {
  const auto all = list();
  for (std::size_t i = static_cast<std::size_t>(config_.keep_last);
       i < all.size(); ++i) {
    std::error_code ec;
    fs::remove(all[i].path, ec);
  }
}

}  // namespace gaia::resilience
