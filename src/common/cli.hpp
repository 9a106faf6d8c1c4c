// Minimal command-line parsing for the bench/example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--flag` forms, with
// environment-variable fallbacks so CI can scale experiments without editing
// command lines (e.g. LRB_ITERS=1000000000 reproduces the paper's 1e9 draws).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lrb {

class CliArgs {
 public:
  /// Parses argv.  Unknown options are collected and reported by
  /// `unknown_options()`; positional arguments by `positionals()`.
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` was passed (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String option: `--name=value` / `--name value`, else env fallback,
  /// else `def`.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& def,
                                       const std::string& env = "") const;

  /// Integer option with env fallback.  Accepts scientific shorthand
  /// ("1e9") and thousands separators ("1_000_000").
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t def,
                                      const std::string& env = "") const;

  /// Finite double option with env fallback, parsed by parse_double.
  [[nodiscard]] double get_double(const std::string& name, double def,
                                  const std::string& env = "") const;

  /// Boolean flag: present (no value) or explicit true/false/1/0/yes/no.
  [[nodiscard]] bool get_bool(const std::string& name, bool def,
                              const std::string& env = "") const;

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  [[nodiscard]] const std::vector<std::string>& unknown_values() const {
    return positionals_;
  }
  [[nodiscard]] const std::string& program_name() const { return program_; }

  /// Parses "1e9", "1_000_000", "42" into u64.  Throws InvalidArgumentError
  /// on garbage.  Exposed for tests.
  static std::uint64_t parse_u64(const std::string& text);

  /// Parses the whole of `text` as a finite double ("2.5", "1e-310" — a
  /// subnormal is a value, not an error).  Throws InvalidArgumentError,
  /// quoting the text, on trailing garbage, NaN, infinity, overflow, and a
  /// nonzero literal that underflows to 0.
  static double parse_double(const std::string& text);

 private:
  [[nodiscard]] std::optional<std::string> lookup(const std::string& name,
                                                  const std::string& env) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positionals_;
};

}  // namespace lrb
