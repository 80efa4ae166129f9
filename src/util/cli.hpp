#pragma once
/// \file cli.hpp
/// \brief Minimal `--flag value` command-line parsing for examples/benches.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bmh {

/// Parses `--key value` and `--switch` style arguments. Unknown positional
/// arguments are collected in order. No external dependency; just enough
/// for the example programs and bench harnesses.
class CliArgs {
public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// The value of `--key` as a number, or `fallback` when the flag is
  /// absent. Throws std::invalid_argument naming the flag when the value is
  /// empty or not entirely a number ("four", "12x").
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

} // namespace bmh
