#include "util/cli.hpp"

#include <iostream>
#include <sstream>

#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace gaia::util {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_option(const std::string& name, const std::string& default_value,
                     const std::string& help) {
  GAIA_CHECK(!options_.contains(name), "duplicate option: " + name);
  options_[name] = Option{default_value, help, false};
  order_.push_back(name);
}

void Cli::add_flag(const std::string& name, const std::string& help) {
  GAIA_CHECK(!options_.contains(name), "duplicate flag: " + name);
  options_[name] = Option{"false", help, true};
  order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    GAIA_CHECK(arg.rfind("--", 0) == 0, "expected --option, got: " + arg);
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const auto it = options_.find(name);
    GAIA_CHECK(it != options_.end(), "unknown option: --" + name);
    if (it->second.is_flag) {
      GAIA_CHECK(!has_inline, "flag --" + name + " takes no value");
      values_[name] = "true";
    } else if (has_inline) {
      values_[name] = inline_value;
    } else {
      GAIA_CHECK(i + 1 < argc, "option --" + name + " needs a value");
      values_[name] = argv[++i];
    }
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  const auto opt = options_.find(name);
  GAIA_CHECK(opt != options_.end(), "undeclared option: " + name);
  const auto val = values_.find(name);
  return val != values_.end() ? val->second : opt->second.default_value;
}

// Both number getters accept a value only when it parses whole: "1e3"
// is not an integer, and "2x" is not 2.
long long Cli::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::size_t used = 0;
  try {
    const long long n = std::stoll(v, &used);
    if (used == v.size()) return n;
  } catch (const std::exception&) {
  }
  throw Error("option --" + name + " is not an integer: " + v);
}

double Cli::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t used = 0;
  try {
    const double x = std::stod(v, &used);
    if (used == v.size()) return x;
  } catch (const std::exception&) {
  }
  throw Error("option --" + name + " is not a number: " + v);
}

bool Cli::get_flag(const std::string& name) const {
  return get(name) == "true";
}

unsigned long long Cli::get_size(const std::string& name) const {
  const std::string v = get(name);
  const auto parsed = parse_size(v);
  if (!parsed) throw Error("option --" + name + " is not a size: " + v);
  return *parsed;
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Option& o = options_.at(name);
    os << "  --" << name;
    if (!o.is_flag) os << " <value>";
    os << "\n      " << o.help;
    if (!o.is_flag) os << " (default: " << o.default_value << ")";
    os << '\n';
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace gaia::util
