/// \file model_drift.hpp
/// \brief Predicted-vs-measured kernel time comparison ("model drift").
///
/// The performance model (src/perfmodel) predicts where the iteration
/// time goes; the observability layer (src/obs) measures where it
/// actually went on the host backends. This report confronts
/// the two: per kernel, the predicted and measured seconds, their ratio,
/// and — the portable signal — the *share* each kernel takes of its
/// campaign's total. Host-measured absolute times cannot match GPU
/// predictions, but the time distribution across kernels must have the
/// same shape (the paper's SV-A claim that aprod1/aprod2 dominate);
/// share drift quantifies how far the model has drifted from the code.
///
/// The report is deliberately plain data + formatting: benches assemble
/// the rows from whatever model/measurement pair they study.
#pragma once

#include <string>
#include <vector>

namespace gaia::metrics {

/// One kernel's predicted-vs-measured entry.
struct KernelDrift {
  std::string kernel;
  double predicted_s = 0;
  double measured_s = 0;
};

/// Derived per-kernel drift statistics.
struct KernelDriftRow {
  std::string kernel;
  double predicted_s = 0;
  double measured_s = 0;
  double ratio = 0;             ///< measured / predicted (0 if no prediction)
  double predicted_share = 0;   ///< share of total predicted time
  double measured_share = 0;    ///< share of total measured time
  double share_drift_pp = 0;    ///< measured_share - predicted_share, in pp
};

class ModelDriftReport {
 public:
  explicit ModelDriftReport(std::vector<KernelDrift> rows);

  [[nodiscard]] const std::vector<KernelDriftRow>& rows() const {
    return rows_;
  }
  [[nodiscard]] double total_predicted_s() const { return total_predicted_; }
  [[nodiscard]] double total_measured_s() const { return total_measured_; }

  /// Mean / max absolute share drift across kernels, in percentage
  /// points — the single-number model-health indicators.
  [[nodiscard]] double mean_abs_share_drift_pp() const;
  [[nodiscard]] double max_abs_share_drift_pp() const;

  /// CSV: kernel,predicted_s,measured_s,ratio,predicted_share,
  /// measured_share,share_drift_pp.
  [[nodiscard]] std::string csv() const;
  void write_csv(const std::string& path) const;

  /// Markdown table with a drift summary line (EXPERIMENTS.md-ready).
  [[nodiscard]] std::string markdown(const std::string& title = "") const;

 private:
  std::vector<KernelDriftRow> rows_;
  double total_predicted_ = 0;
  double total_measured_ = 0;
};

}  // namespace gaia::metrics
