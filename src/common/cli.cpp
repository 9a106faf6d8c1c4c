#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace lrb {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` form: consume the next token if it is not an option.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[i + 1];
      ++i;
    } else {
      options_[arg] = "";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::optional<std::string> CliArgs::lookup(const std::string& name,
                                           const std::string& env) const {
  if (auto it = options_.find(name); it != options_.end()) return it->second;
  if (!env.empty()) {
    if (const char* v = std::getenv(env.c_str()); v != nullptr) {
      return std::string(v);
    }
  }
  return std::nullopt;
}

std::string CliArgs::get_string(const std::string& name, const std::string& def,
                                const std::string& env) const {
  return lookup(name, env).value_or(def);
}

std::uint64_t CliArgs::parse_u64(const std::string& text) {
  LRB_REQUIRE(!text.empty(), InvalidArgumentError, "empty integer option");
  const std::string error =
      "cannot parse '" + text + "' as a non-negative integer";
  std::string clean;
  clean.reserve(text.size());
  for (char c : text) {
    if (c != '_' && c != ',') clean += c;
  }
  // Decimal digits, '.' and an exponent only: strtoull/strtod would also
  // skip leading blanks, read hex, or take a leading sign ("-1" wraps to
  // 2^64 - 1).  A sign may only follow the exponent marker ("1e+9").
  LRB_REQUIRE(!clean.empty() && clean.front() != '+' && clean.front() != '-' &&
                  clean.find_first_not_of("0123456789.eE+-") ==
                      std::string::npos,
              InvalidArgumentError, error);
  char* end = nullptr;
  errno = 0;
  // Scientific shorthand: "1e9", "2.5e6".
  if (clean.find_first_of("eE.") != std::string::npos) {
    const double v = std::strtod(clean.c_str(), &end);
    // 0x1p64 is 2^64 exactly, the first double a uint64_t cannot hold.
    LRB_REQUIRE(*end == '\0' && errno != ERANGE && v < 0x1p64 &&
                    std::floor(v) == v,
                InvalidArgumentError, error);
    return static_cast<std::uint64_t>(v);
  }
  const unsigned long long v = std::strtoull(clean.c_str(), &end, 10);
  LRB_REQUIRE(*end == '\0' && errno != ERANGE, InvalidArgumentError, error);
  return v;
}

double CliArgs::parse_double(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  // strtod flags ERANGE on every underflow, including the subnormals it
  // returns exactly; only an underflow all the way to 0 loses the value.
  LRB_REQUIRE(end != text.c_str() && *end == '\0' && std::isfinite(v) &&
                  !(errno == ERANGE && v == 0.0),
              InvalidArgumentError,
              "cannot parse '" + text + "' as a finite number");
  return v;
}

std::uint64_t CliArgs::get_u64(const std::string& name, std::uint64_t def,
                               const std::string& env) const {
  const auto v = lookup(name, env);
  return v ? parse_u64(*v) : def;
}

double CliArgs::get_double(const std::string& name, double def,
                           const std::string& env) const {
  const auto v = lookup(name, env);
  return v ? parse_double(*v) : def;
}

bool CliArgs::get_bool(const std::string& name, bool def,
                       const std::string& env) const {
  const auto v = lookup(name, env);
  if (!v) return def;
  if (v->empty()) return true;  // bare flag
  std::string low = *v;
  std::transform(low.begin(), low.end(), low.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (low == "1" || low == "true" || low == "yes" || low == "on") return true;
  if (low == "0" || low == "false" || low == "no" || low == "off") return false;
  throw InvalidArgumentError("cannot parse '" + *v + "' as a boolean");
}

}  // namespace lrb
