#include "support/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace commscope::support {

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::set<std::string> bool_flags)
    : bool_flags_(std::move(bool_flags)) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

ArgParser::ArgParser(const std::vector<std::string>& args,
                     std::set<std::string> bool_flags)
    : bool_flags_(std::move(bool_flags)) {
  parse(args);
}

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& tok = args[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(tok);
      continue;
    }
    const std::string body = tok.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (bool_flags_.count(body) == 0 && i + 1 < args.size() &&
               args[i + 1].rfind("--", 0) != 0) {
      flags_[body] = args[++i];
    } else {
      flags_[body] = "";
    }
  }
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

namespace {

[[noreturn]] void malformed(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got '" + value + "'");
}

}  // namespace

std::int64_t ArgParser::get_int_strict(const std::string& name,
                                       std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty()) malformed(name, it->second, "an integer");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    malformed(name, it->second, "an integer");
  }
  return v;
}

void ArgParser::reject_range(const std::string& name, std::int64_t value,
                             const std::string& lo, const std::string& hi) {
  malformed(name, std::to_string(value),
            ("an integer in [" + lo + ", " + hi + "]").c_str());
}

double ArgParser::get_double_strict(const std::string& name,
                                    double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty()) malformed(name, it->second, "a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    malformed(name, it->second, "a number");
  }
  return v;
}

std::uint64_t ArgParser::get_bytes_strict(const std::string& name,
                                          std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& s = it->second;
  if (s.empty()) malformed(name, s, "a byte count (e.g. 1048576 or 64M)");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || errno == ERANGE || s[0] == '-') {
    malformed(name, s, "a byte count (e.g. 1048576 or 64M)");
  }
  std::uint64_t mult = 1;
  if (*end != '\0') {
    if (end[1] != '\0') malformed(name, s, "a byte count (e.g. 1048576 or 64M)");
    switch (*end) {
      case 'K': case 'k': mult = 1ULL << 10; break;
      case 'M': case 'm': mult = 1ULL << 20; break;
      case 'G': case 'g': mult = 1ULL << 30; break;
      default: malformed(name, s, "a byte count (e.g. 1048576 or 64M)");
    }
  }
  return static_cast<std::uint64_t>(v) * mult;
}

std::vector<std::string> ArgParser::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      out.push_back(name);
    }
  }
  return out;
}

}  // namespace commscope::support
