#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "common/expect.hpp"

namespace chronosync {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      options_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--name value` if the next token is not itself an option; else a flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      options_[std::string(arg)] = argv[++i];
    } else {
      options_[std::string(arg)] = "1";
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  // Full-consumption parse: strtoll with a discarded endptr silently returns
  // 0 on garbage and a partial value on trailing junk ("--reps=abc" ran 0
  // reps, "--reps=5x" ran 5).  Malformed numbers must fail loudly, naming
  // the option.
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(s, &end, 10);
  CS_REQUIRE(end != s && *end == '\0',
             "option --" + name + " expects an integer, got \"" + it->second + "\"");
  CS_REQUIRE(errno != ERANGE,
             "option --" + name + " is out of range: \"" + it->second + "\"");
  return v;
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  CS_REQUIRE(end != s && *end == '\0',
             "option --" + name + " expects a number, got \"" + it->second + "\"");
  CS_REQUIRE(errno != ERANGE,
             "option --" + name + " is out of range: \"" + it->second + "\"");
  return v;
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            std::vector<std::int64_t> fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  std::vector<std::int64_t> out;
  const std::string& value = it->second;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string elem =
        value.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const char* s = elem.c_str();
    char* end = nullptr;
    errno = 0;
    const std::int64_t v = std::strtoll(s, &end, 10);
    CS_REQUIRE(end != s && *end == '\0',
               "option --" + name + " expects comma-separated integers, got \"" + value +
                   "\"");
    CS_REQUIRE(errno != ERANGE, "option --" + name + " is out of range: \"" + value + "\"");
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool Cli::reject_unknown(std::string_view tool,
                         std::initializer_list<std::string_view> known) const {
  bool any = false;
  for (const auto& [name, value] : options_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    if (!any) std::cerr << tool << ": unknown option";
    std::cerr << " --" << name;
    any = true;
  }
  if (any) std::cerr << "\n";
  return any;
}

std::uint64_t Cli::get_seed(std::uint64_t fallback) const {
  return static_cast<std::uint64_t>(get_int("seed", static_cast<std::int64_t>(fallback)));
}

}  // namespace chronosync
