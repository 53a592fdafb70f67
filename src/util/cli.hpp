/// \file cli.hpp
/// \brief Tiny declarative command-line parser for the examples/benches.
///
/// The paper's solver (`solvergaiaSim`) takes the problem size in GB plus
/// iteration counts at run time; our examples mirror that interface:
///   `gaia_solver --size 10GB --iterations 100 --backend gpusim`
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gaia::util {

/// Parses `--key value` and `--flag` style arguments. Unknown keys are an
/// error (typos in benchmark sweeps should fail loudly, not silently run
/// the default configuration).
class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Declare an option with a default value (also used for --help text).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declare a boolean flag (defaults to false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Returns false (after printing usage) when --help was
  /// requested; throws gaia::Error on malformed input.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;
  /// Size in bytes from a human string ("10GB").
  [[nodiscard]] unsigned long long get_size(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };
  std::string program_;
  std::string description_;
  std::vector<std::string> order_;           // declaration order for usage()
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
};

}  // namespace gaia::util
