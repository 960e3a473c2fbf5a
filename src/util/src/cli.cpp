#include "mel/util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mel::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const char* expected,
                            const std::string& text) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got \"" + text + "\"");
}

/// from_chars over the whole of `text`: the number, or nullopt when
/// anything is left over or the value does not fit.
template <class T>
std::optional<T> parse_whole(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

int usage_error(const char* argv0, const std::exception& e) {
  const std::string_view path(argv0);
  const std::string_view program = path.substr(path.rfind('/') + 1);
  std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()),
               program.data(), e.what());
  return 2;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  return parse_whole<std::int64_t>(text);
}

std::optional<double> parse_double(std::string_view text) {
  const auto v = parse_whole<double>(text);
  if (v && !std::isfinite(*v)) return std::nullopt;
  return v;
}

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.count(name) != 0; }

std::vector<std::string> Cli::option_names() const {
  std::vector<std::string> names;
  names.reserve(options_.size());
  for (const auto& [name, value] : options_) names.push_back(name);
  return names;  // std::map: already sorted
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const auto v = parse_int(it->second);
  if (!v) bad_value(name, "an integer", it->second);
  return *v;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const auto v = parse_double(it->second);
  if (!v) bad_value(name, "a number", it->second);
  return *v;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes" || it->second == "on") {
    return true;
  }
  return false;
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            const std::string& fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() && fallback.empty()) return {};
  const std::string& text = it == options_.end() ? fallback : it->second;
  std::vector<std::int64_t> out;
  for (std::size_t pos = 0; pos <= text.size();) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const auto v = parse_int(std::string_view(text).substr(pos, comma - pos));
    if (!v) bad_value(name, "a comma-separated list of integers", text);
    out.push_back(*v);
    pos = comma + 1;
  }
  return out;
}

}  // namespace mel::util
