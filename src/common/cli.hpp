// Tiny command-line option parser for the bench and example binaries.
// Supports `--name value`, `--name=value`, and boolean flags `--name`.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace chronosync {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Comma-separated integer list, e.g. `--ranks 8,64,256`; a single integer
  /// parses as a one-element list.  Empty elements and non-numeric values
  /// fail loudly like get_int.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         std::vector<std::int64_t> fallback) const;
  std::uint64_t get_seed(std::uint64_t fallback = 42) const;

  /// The given options whose names are not in `known`, in name order: lets a
  /// tool refuse a misspelled or retired flag instead of ignoring it.
  std::vector<std::string> unknown_options(std::initializer_list<std::string_view> known) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace chronosync
