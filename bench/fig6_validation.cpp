/// \file fig6_validation.cpp
/// \brief Regenerates paper Figure 6: the one-to-one comparison of each
/// port's astrometric solution and standard errors against the
/// production reference, on an astrometric-scale synthetic stand-in for
/// the (NDA'd) 42 GB dataset.
///
/// Emits the scatter series (`--csv-dir`) and prints the per-port fit
/// and agreement statistics the figure visualizes.
#include <iostream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "validation/cross_backend.hpp"

int main(int argc, char** argv) {
  using namespace gaia;
  util::Cli cli("fig6_validation", "paper Fig. 6 reproduction");
  cli.add_option("csv-dir", "", "directory for CSV output (empty = none)");
  cli.add_option("stars", "800",
                 "stars in the small validation dataset (the large one "
                 "scales by the paper's 306/42 ratio)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string csv_dir = cli.get("csv-dir");

    // The paper validates on two production datasets (42 GB and 306 GB,
    // a ~7.3x size ratio); we run two scaled-down stand-ins with the
    // same ratio.
    struct Dataset {
      const char* label;
      long long stars;
    };
    const long long base_stars = cli.get_int("stars");
    const Dataset datasets[] = {
        {"42GB-analog", base_stars},
        {"306GB-analog", base_stars * 306 / 42},
    };
    bool all_ok = true;
    for (const Dataset& ds : datasets) {
    std::cout << "--- dataset " << ds.label << " (" << ds.stars
              << " stars) ---\n";
    validation::ValidationOptions opts;
    opts.dataset.seed = 42;
    opts.dataset.n_stars = ds.stars;
    opts.dataset.obs_per_star_mean = 30.0;
    opts.dataset.att_dof_per_axis = 96;
    opts.dataset.n_instr_params = 64;
    opts.dataset.noise_sigma = 0.05;
    opts.lsqr.max_iterations = 300;
    opts.lsqr.atol = 1e-13;
    opts.lsqr.btol = 1e-13;

    std::cout << "=== Fig. 6: port-vs-reference validation ===\n\n";
    const auto campaign = validation::run_validation(opts);

    util::Table t({"panel", "port", "quantity", "slope", "intercept", "R^2",
                   "1-sigma agr."});
    char panel = 'a';
    for (const auto& port : campaign.ports) {
      const auto sol_pts = validation::astrometric_scatter(
          campaign.layout, port.result.x, campaign.reference.x);
      const auto err_pts = validation::astrometric_scatter(
          campaign.layout, port.result.std_errors,
          campaign.reference.std_errors);
      const auto sol_fit = validation::fit_one_to_one(sol_pts);
      const auto err_fit = validation::fit_one_to_one(err_pts);

      t.add_row({std::string(1, panel++), backends::to_string(port.backend),
                 "solution", util::Table::num(sol_fit.slope, 6),
                 util::Table::num(sol_fit.intercept, 9),
                 util::Table::num(sol_fit.r2, 6),
                 util::Table::num(port.solution.sigma_agreement * 100, 1) +
                     " %"});
      t.add_row({std::string(1, panel++), backends::to_string(port.backend),
                 "std error", util::Table::num(err_fit.slope, 6),
                 util::Table::num(err_fit.intercept, 9),
                 util::Table::num(err_fit.r2, 6), "-"});

      if (!csv_dir.empty()) {
        util::CsvWriter csv({"unknown", "reference", "candidate"});
        for (const auto& pt : sol_pts) {
          csv.add_row({std::to_string(pt.unknown),
                       util::Table::num(pt.reference, 12),
                       util::Table::num(pt.candidate, 12)});
        }
        csv.write(csv_dir + "/fig6_" + ds.label + "_scatter_" +
                  backends::to_string(port.backend) + ".csv");
      }
    }
    std::cout << t.str() << '\n';
    std::cout << "acceptance (paper SV-C): slope ~ 1, intercept ~ 0 (the "
                 "dashed one-to-one line), agreement within 1 sigma, and "
                 "std-error differences below 10 uas. Every port sums in "
                 "the order the system fixes, so its max |dx| against the "
                 "reference is 0.\n";
    for (const auto& port : campaign.ports) {
      std::cout << "  " << backends::to_string(port.backend)
                << ": d(std err) mean = "
                << port.std_errors.mean_diff / kMicroArcsecInRad
                << " uas, sigma = "
                << port.std_errors.stddev_diff / kMicroArcsecInRad
                << " uas -> "
                << (port.std_errors.below_accuracy_goal ? "PASS" : "FAIL")
                << ", max |dx| = " << port.solution.max_abs_diff << '\n';
    }
    std::cout << (campaign.all_passed ? "\nALL PORTS VALIDATED\n\n"
                                      : "\nVALIDATION FAILURES\n\n");
    all_ok = all_ok && campaign.all_passed;
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
