#include "dist/dist_lsqr.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>

#include "core/kernel_catalog.hpp"
#include "core/lsqr_engine.hpp"
#include "core/preconditioner.hpp"
#include "core/rank_reducer.hpp"
#include "metrics/roofline.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "resilience/fault_injector.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace gaia::dist {

namespace {

/// One rank's `Comm`-backed reductions of the LSQR recurrence. Local
/// obs rows sit at [row_offset, row_offset + obs_rows) of the global row
/// space; the last rank also owns the constraint tail [n_obs, m_global).
class CommReducer final : public core::RankReducer {
 public:
  /// `verdicts` has one slot per rank, shared by the world's reducers.
  CommReducer(Comm& comm, const RowPartition& partition,
              const matrix::SystemMatrix& A,
              std::vector<resilience::HealthVerdict>& verdicts)
      : comm_(comm),
        partition_(partition),
        verdicts_(verdicts),
        global_rows_(static_cast<std::size_t>(A.n_rows())),
        n_obs_(static_cast<std::size_t>(A.n_obs())),
        row_offset_(static_cast<std::size_t>(
            partition.row_begin[static_cast<std::size_t>(comm.rank())])),
        obs_rows_(static_cast<std::size_t>(partition.rows_of(comm.rank()))) {}

  int rank() const override { return comm_.rank(); }
  int ranks() const override { return comm_.size(); }
  real sum(real local) override {
    return comm_.allreduce(local, ReduceOp::kSum);
  }
  real min(real local) override {
    return comm_.allreduce(local, ReduceOp::kMin);
  }
  real max(real local) override {
    return comm_.allreduce(local, ReduceOp::kMax);
  }
  void sum(std::span<real> partials) override {
    comm_.allreduce(partials, ReduceOp::kSum);
  }

  double max_iteration_seconds(double local_seconds) override {
    local_seconds_.push_back(local_seconds);
    return comm_.allreduce(static_cast<real>(local_seconds), ReduceOp::kMax);
  }

  resilience::HealthVerdict agree(
      const resilience::HealthVerdict& local) override {
    // Each rank deposits its verdict at its own slot; the allreduce of
    // the worst invariant doubles as the fence that publishes the slots
    // before anyone reads them.
    verdicts_[static_cast<std::size_t>(rank())] = local;
    const real worst = comm_.allreduce(
        static_cast<real>(static_cast<int>(local.invariant)), ReduceOp::kMax);
    if (worst == 0) return local;
    return *std::find_if(verdicts_.begin(), verdicts_.end(),
                         [](const auto& v) { return !v.healthy(); });
  }

  std::size_t global_rows() const override { return global_rows_; }

  void gather_rows(std::span<const real> local,
                   const std::function<void(RowSegments)>& at_root) override {
    comm_.gather(local, [&](std::span<const std::span<const real>> slices) {
      // Global row order: every rank's observation rows in rank order,
      // then the constraint rows, which only the last rank holds.
      std::vector<std::span<const real>> rows;
      rows.reserve(slices.size() + 1);
      for (std::size_t r = 0; r < slices.size(); ++r)
        rows.push_back(slices[r].first(static_cast<std::size_t>(
            partition_.rows_of(static_cast<int>(r)))));
      rows.push_back(slices.back().subspan(rows.back().size()));
      at_root(rows);
    });
  }

  void slice_rows(std::span<const real> global,
                  std::span<real> local) const override {
    std::copy_n(global.begin() + offset(row_offset_), obs_rows_,
                local.begin());
    std::copy_n(global.begin() + offset(n_obs_), local.size() - obs_rows_,
                local.begin() + offset(obs_rows_));
  }

  /// This rank's own iteration times (not the max over ranks) — the raw
  /// material of its dist.rank.iteration_seconds row.
  const std::vector<double>& local_seconds() const { return local_seconds_; }

 private:
  static std::ptrdiff_t offset(std::size_t i) {
    return static_cast<std::ptrdiff_t>(i);
  }

  Comm& comm_;
  const RowPartition& partition_;
  std::vector<resilience::HealthVerdict>& verdicts_;
  std::size_t global_rows_, n_obs_, row_offset_, obs_rows_;
  std::vector<double> local_seconds_;
};

/// Rank-local observatory rows. Built from genuinely per-rank data (the
/// rank's iteration times, its Aprod launch counter, its row slice) —
/// the in-process MetricsRegistry is shared by every rank and therefore
/// already cluster-wide, so it cannot supply per-rank series.
std::vector<obs::MetricRow> build_rank_rows(
    const std::vector<double>& iter_seconds, const core::Aprod& aprod,
    std::int64_t itn, std::size_t m_local, const CommStats& comm_used,
    double loop_seconds, std::uint64_t trace_dropped) {
  std::vector<obs::MetricRow> rows;
  obs::MetricRow iter;
  iter.name = "dist.rank.iteration_seconds";
  iter.type = "histogram";
  iter.count = iter_seconds.size();
  if (!iter_seconds.empty()) {
    iter.min = util::min(iter_seconds);
    iter.max = util::max(iter_seconds);
    for (double t : iter_seconds) iter.sum += t;
    iter.last = iter_seconds.back();
    iter.p50 = util::percentile(iter_seconds, 50.0);
    iter.p95 = util::percentile(iter_seconds, 95.0);
    iter.p99 = util::percentile(iter_seconds, 99.0);
  }
  rows.push_back(std::move(iter));

  const auto counter = [](const char* name, std::uint64_t v) {
    obs::MetricRow r;
    r.name = name;
    r.type = "counter";
    r.count = v;
    r.sum = static_cast<double>(v);
    r.last = r.sum;
    return r;
  };
  // Bytes this rank's kernels moved: the catalog's traffic of the LSQR
  // step over the rank's slice, once per iteration.
  const std::uint64_t bytes_per_iteration =
      core::pass_traffic_bytes(aprod.view(), tuning::kStepPass);
  rows.push_back(counter("dist.rank.kernel_bytes",
                         bytes_per_iteration *
                             static_cast<std::uint64_t>(itn)));
  rows.push_back(counter("dist.rank.launches", aprod.launches()));
  rows.push_back(counter("dist.rank.rows",
                         static_cast<std::uint64_t>(m_local)));

  // Per-rank scalars ride as single-sample histograms (count=1, every
  // field = the value): the cross-rank reduction then yields the right
  // envelope — sum is the cluster total, max the worst rank, p50 a
  // representative rank — where a counter row would only ever sum.
  const auto scalar = [](const char* name, double v) {
    obs::MetricRow r;
    r.name = name;
    r.type = "histogram";
    r.count = 1;
    r.sum = v;
    r.min = v;
    r.max = v;
    r.last = v;
    r.p50 = v;
    r.p95 = v;
    r.p99 = v;
    return r;
  };
  rows.push_back(counter("dist.rank.comm.collectives", comm_used.collectives));
  rows.push_back(counter("dist.rank.comm.bytes", comm_used.bytes));
  rows.push_back(scalar("dist.rank.comm.seconds", comm_used.seconds));
  rows.push_back(
      scalar("dist.rank.comm.wait_seconds", comm_used.wait_seconds));
  // The LSQR loop is synchronous (no comm/compute overlap), so the
  // exposed-comm fraction of this rank's loop is simply its collective
  // share of the loop wall time. gaia-critpath computes the
  // overlap-aware version from the trace; the two agree here by
  // construction and diverge once overlap is introduced.
  rows.push_back(scalar(
      "dist.rank.comm.exposure_fraction",
      loop_seconds > 0 ? comm_used.seconds / loop_seconds : 0.0));
  rows.push_back(counter("dist.rank.trace.dropped_events", trace_dropped));
  return rows;
}

/// Folds the cluster-wide reduction into the shared registry under a
/// `cluster.` prefix (rank 0 only, and only when metrics are armed):
/// counters add; histogram rows flatten to gauges, since the registry
/// cannot adopt pre-reduced quantiles as histogram samples.
void publish_cluster_rows(const std::vector<obs::MetricRow>& rows) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  for (const obs::MetricRow& r : rows) {
    if (r.type == "counter") {
      reg.counter("cluster." + r.name).add(r.count);
    } else {
      reg.gauge("cluster." + r.name + ".count")
          .set(static_cast<double>(r.count));
      reg.gauge("cluster." + r.name + ".sum").set(r.sum);
      reg.gauge("cluster." + r.name + ".max").set(r.max);
      reg.gauge("cluster." + r.name + ".p50").set(r.p50);
    }
  }
}

}  // namespace

DistLsqrResult dist_lsqr_solve(const matrix::SystemMatrix& A,
                               const DistLsqrOptions& options) {
  GAIA_CHECK(options.lsqr.max_iterations > 0, "need positive iterations");
  GAIA_CHECK(options.max_restarts >= 0, "max_restarts must be >= 0");
  // The system joins the caller's config fingerprint in every bundle
  // this solve seals (the same two keys run_solver records).
  obs::set_postmortem_context("n_obs", std::to_string(A.n_obs()));
  obs::set_postmortem_context("n_unknowns",
                              std::to_string(A.layout().n_unknowns()));
  // Global column norms, once: every rank's engine scales its own device
  // copy of its slice by them.
  const std::vector<real> col_scale = options.lsqr.precondition
                                          ? core::column_norms(A)
                                          : std::vector<real>{};
  // Shared by the rank threads: only rank 0 writes, and every rank walks
  // the rotation before its first collective.
  resilience::CheckpointManager manager(options.checkpoint);

  DistLsqrResult result;
  int n_ranks = options.n_ranks;

  for (;;) {
    result.partition = partition_by_stars(A, n_ranks);
    const RowPartition& partition = result.partition;

    // Rank-local slices built up front (production reads its slice from
    // the distributed filesystem the same way).
    std::vector<matrix::SystemMatrix> slices;
    slices.reserve(static_cast<std::size_t>(n_ranks));
    for (int r = 0; r < n_ranks; ++r)
      slices.push_back(extract_rank_slice(A, partition, r));

    World world(n_ranks);
    // Per-rank deposits of this attempt, each rank thread at its own
    // index (no sharing): health verdict slots, observatory rows and the
    // comm accounting of the iteration loop. Rank 0 also deposits the
    // solve result; the calling thread adopts it all after the join.
    std::vector<resilience::HealthVerdict> verdicts(
        static_cast<std::size_t>(n_ranks));
    std::vector<std::vector<obs::MetricRow>> rank_rows(
        static_cast<std::size_t>(n_ranks));
    std::vector<CommStats> rank_comm(static_cast<std::size_t>(n_ranks));
    std::vector<double> rank_loop_seconds(static_cast<std::size_t>(n_ranks),
                                          0.0);
    core::LsqrResult solved;
    // One recorder per rank when tracing: each is constructed *after*
    // the World so its epoch offset against the shared world clock is
    // the well-defined positive skew the merger undoes. Recorders must
    // outlive the rank threads; the driver writes/merges them after
    // join.
    const bool tracing = !options.trace_dir.empty();
    std::vector<std::unique_ptr<obs::TraceRecorder>> recorders;
    if (tracing) {
      std::filesystem::create_directories(options.trace_dir);
      recorders.reserve(static_cast<std::size_t>(n_ranks));
      for (int r = 0; r < n_ranks; ++r) {
        auto rec = std::make_unique<obs::TraceRecorder>();
        if (options.trace_capacity > 0)
          rec->set_capacity(options.trace_capacity);
        rec->set_enabled(true);
        rec->set_rank(r, n_ranks);
        rec->set_epoch_offset_us(
            std::chrono::duration<double, std::micro>(rec->epoch() -
                                                      world.epoch())
                .count());
        recorders.push_back(std::move(rec));
      }
    }
    try {
      world.run([&](Comm& comm) {
        const int rank = comm.rank();
        const auto slot = static_cast<std::size_t>(rank);
        // Everything this rank thread records lands in its own
        // recorder; without tracing the scope installs nullptr and
        // instrumentation falls through to the process-global recorder.
        obs::ThreadRecorderScope trace_scope(
            tracing ? recorders[slot].get() : nullptr);
        // Rank-tagged telemetry: the sampler's progress rows and any
        // flight events this thread records carry this rank id.
        obs::ThreadRankScope rank_scope(rank);
        obs::ProgressBoard::global().begin(rank,
                                           options.lsqr.max_iterations,
                                           "solve");
        struct BoardEnd {
          int rank;
          ~BoardEnd() { obs::ProgressBoard::global().end(rank); }
        } board_end{rank};
        // Every way a rank can die seals a per-rank postmortem bundle
        // (postmortem.rank<N>.json) before the exception reaches
        // World::run's poison path.
        try {
          CommReducer reducer(comm, partition, A, verdicts);
          // The engine adopts this rank's slice as its device buffers; a
          // restart rebuilds the slices, so the move is per attempt.
          core::LsqrEngine engine(std::move(slices[slot]), options.lsqr,
                                  &reducer, col_scale);
          // Auto-resume: also the recovery path after a restart.
          const std::int64_t resumed = engine.use_checkpoints(manager);
          if (rank == 0 && resumed >= 0)
            result.resumed_from_iteration = resumed;

          // Comm accounting scoped to the iteration loop: the stats/wall
          // snapshot-diff below feeds this rank's dist.rank.comm.* rows.
          const CommStats comm_start = comm.stats();
          util::Stopwatch loop_watch;
          auto& injector = resilience::FaultInjector::global();
          while (!engine.finished()) {
            // Injected rank death (rank:iter=...,rank=... clauses) fires
            // at the iteration boundary — the RankDeath unwinds through
            // the collectives, poisons the world and reaches the restart
            // loop below.
            injector.maybe_kill_rank(rank, engine.iteration() + 1);
            engine.step();
          }
          const double loop_seconds = loop_watch.elapsed_s();
          const CommStats comm_used = comm.stats() - comm_start;
          rank_comm[slot] = comm_used;
          rank_loop_seconds[slot] = loop_seconds;

          // Performance observatory (collective): reduce the per-rank
          // rows to one cluster-wide set. A peer death or schema mismatch
          // degrades to a partial (local) result — never a hang.
          std::vector<obs::MetricRow> local_rows = build_rank_rows(
              reducer.local_seconds(), engine.aprod(), engine.iteration(),
              static_cast<std::size_t>(engine.aprod().n_rows()), comm_used,
              loop_seconds,
              tracing ? recorders[slot]->dropped_events() : 0);
          AggregatedMetrics agg = aggregate_metrics(comm, local_rows);
          rank_rows[slot] = std::move(local_rows);
          if (rank == 0) {
            solved = engine.result();
            result.cluster_metrics_complete = agg.complete;
            result.cluster_metrics = std::move(agg.rows);
            publish_cluster_rows(result.cluster_metrics);
            // Headline gauge: the worst rank's exposed-comm fraction, the
            // number ROADMAP's comm/compute-overlap item tracks.
            auto& reg = obs::MetricsRegistry::global();
            if (reg.enabled()) {
              for (const obs::MetricRow& r : result.cluster_metrics)
                if (r.name == "dist.rank.comm.exposure_fraction")
                  reg.gauge("comm.exposure_fraction").set(r.max);
            }
          }
        } catch (const resilience::RankDeath& death) {
          // The dying rank seals its own bundle — its trace tail and the
          // flight-event timeline are thread-local context the driver
          // cannot reconstruct after the poison propagates.
          obs::flight_event("fault", "rank.death", death.what(),
                            death.iteration(), rank);
          obs::flush_postmortem(
              {"rank-death", death.what(), rank, n_ranks});
          throw;
        } catch (const WorldPoisoned&) {
          // Collateral unwind of a survivor; no bundle — the real error
          // was sealed by the rank that raised it.
          throw;
        } catch (const resilience::SdcError&) {
          // Every rank exhausts the repair budget on the same collective
          // verdict; the catch below seals the one cluster-wide bundle.
          throw;
        } catch (const std::exception& e) {
          obs::flight_event("fault", "rank.exception", e.what(), -1, rank);
          obs::flush_postmortem({"exception", e.what(), rank, n_ranks});
          throw;
        }
      });
    } catch (const resilience::SdcError& e) {
      // Driver-level bundle (rank -1): the cluster-wide diagnosis, sealed
      // before the throw so a crashing caller still has it.
      obs::flush_postmortem(
          {"sdc-unrepaired", e.verdict().describe(), -1, n_ranks});
      throw;
    } catch (const resilience::RankDeath& death) {
      if (result.restarts >= options.max_restarts || n_ranks <= 1) {
        obs::flush_postmortem(
            {"rank-death-unrecovered",
             std::string(death.what()) + "; restart budget exhausted", -1,
             n_ranks});
        throw;
      }
      ++result.restarts;
      --n_ranks;
      const std::string detail =
          "rank " + std::to_string(death.rank()) + " died at iteration " +
          std::to_string(death.iteration()) + "; restarting on " +
          std::to_string(n_ranks) + " rank(s)";
      std::cerr << "warning: " << detail << '\n';
      resilience::note_resilience_event("rank_death.recovered", detail);
      continue;  // re-partition over the survivors and resume
    }

    result.x = std::move(solved.x);
    result.std_errors = std::move(solved.std_errors);
    result.istop = solved.istop;
    result.iterations = solved.iterations;
    result.anorm = solved.anorm;
    result.acond = solved.acond;
    result.rnorm = solved.rnorm;
    result.arnorm = solved.arnorm;
    result.xnorm = solved.xnorm;
    result.iteration_seconds = std::move(solved.iteration_seconds);
    result.mean_iteration_s = solved.mean_iteration_s;
    result.health = solved.health;
    result.final_ranks = n_ranks;
    result.checkpoints_written = manager.written();
    result.rank_metrics = std::move(rank_rows);
    for (int r = 0; r < n_ranks; ++r) {
      const CommStats& s = rank_comm[static_cast<std::size_t>(r)];
      const double loop_s = rank_loop_seconds[static_cast<std::size_t>(r)];
      result.comm_seconds_max = std::max(result.comm_seconds_max, s.seconds);
      result.comm_wait_seconds_max =
          std::max(result.comm_wait_seconds_max, s.wait_seconds);
      if (loop_s > 0)
        result.comm_exposure_fraction_max = std::max(
            result.comm_exposure_fraction_max, s.seconds / loop_s);
    }
    if (tracing) {
      // Per-rank files first, then the driver-side merge: the rank
      // threads are joined, so the recorders are quiescent.
      std::vector<obs::TraceDoc> docs;
      docs.reserve(recorders.size());
      for (int r = 0; r < n_ranks; ++r) {
        const auto& rec = recorders[static_cast<std::size_t>(r)];
        const std::string path = options.trace_dir + "/trace.rank" +
                                 std::to_string(r) + ".json";
        rec->write(path);
        result.trace_files.push_back(path);
        result.trace_dropped_events += rec->dropped_events();
        docs.push_back(obs::parse_trace_json(rec->json()));
      }
      const obs::TraceDoc merged = obs::merge_traces(docs);
      obs::validate_trace(merged);
      result.merged_trace_file = options.trace_dir + "/trace.merged.json";
      obs::write_trace(merged, result.merged_trace_file);
    }
    // Roofline placement over the cluster-aggregated kernel rows, so
    // the gauges ride the sealed cluster snapshot below and a
    // multi-rank run exposes every kernel's ceiling fraction.
    {
      const perfmodel::GpuSpec spec =
          perfmodel::gpu_spec(perfmodel::Platform::kA100);
      const metrics::RooflineMachine machine{
          spec.name, spec.peak_bw_gbs, spec.fp64_tflops * 1000.0,
          spec.spmv_bw_efficiency};
      metrics::publish_roofline_gauges(metrics::roofline_points(
          obs::MetricsRegistry::global().snapshot(), machine));
    }
    // Exactly one cluster-wide snapshot per distributed solve: the meta
    // records the rank count and whether the reduction covered every
    // rank, then the armed sink (if any) re-seals the file.
    obs::SnapshotMeta meta;
    meta.rank = -1;  // aggregated, not a single rank's view
    meta.ranks = n_ranks;
    meta.complete = result.cluster_metrics_complete;
    obs::set_global_snapshot_meta(meta);
    obs::flush_global_snapshot();
    return result;
  }
}

}  // namespace gaia::dist
