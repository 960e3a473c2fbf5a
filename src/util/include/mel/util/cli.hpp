// Tiny command-line option parser used by the tools, examples and benches.
// Supports `--name value`, `--name=value`, and boolean `--flag`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mel::util {

/// The one number parser behind every numeric flag: the whole of `text`
/// must be one base-10 integer, else nullopt (empty, trailing junk, out of
/// range).
std::optional<std::int64_t> parse_int(std::string_view text);

/// As parse_int, for one finite number ("0.05", "1e-3").
std::optional<double> parse_double(std::string_view text);

/// What a bench or example main returns on bad input, such as a malformed
/// flag value: prints "PROGRAM: MESSAGE" on stderr, PROGRAM being the file
/// name of `argv0`, and returns exit code 2.
int usage_error(const char* argv0, const std::exception& e);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `--name` was passed (with or without a value).
  bool has(const std::string& name) const;

  /// Option values, or `fallback` when `--name` was not passed. A numeric
  /// getter throws std::invalid_argument naming the flag when the value is
  /// empty or not a number.
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  /// A comma-separated list of integers, e.g. "16,32,64"; an empty
  /// fallback gives an empty list.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         const std::string& fallback) const;

  /// Positional (non-option) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Every `--name` that was passed, sorted; lets a program reject
  /// options it does not know about instead of silently ignoring typos.
  std::vector<std::string> option_names() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace mel::util
