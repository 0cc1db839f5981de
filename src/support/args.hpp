// Minimal command-line flag parser for the commscope CLI tool.
//
// Grammar: positional arguments interleaved with flags; a flag is
// `--name=value`, `--name value` (when `name` is not a declared boolean and
// the next token is not itself a flag), or a bare boolean `--name`. Boolean
// flag names are declared up front so they never consume a following
// positional. Unknown flags are collected so the caller can reject them with
// a useful message.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace commscope::support {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv,
            std::set<std::string> bool_flags = {});
  explicit ArgParser(const std::vector<std::string>& args,
                     std::set<std::string> bool_flags = {});

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return flags_.count(name) != 0;
  }

  /// String value of `--name`; `fallback` when absent; the empty string for
  /// bare boolean flags.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Integer value; `fallback` when absent or non-numeric.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Floating-point value; `fallback` when absent or non-numeric.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Integer value; `fallback` when absent, but throws std::invalid_argument
  /// ("--name: expected an integer, got 'X'") when the flag is present with a
  /// non-numeric value — the CLI maps that to exit code 2 (usage error)
  /// instead of silently profiling with the default.
  [[nodiscard]] std::int64_t get_int_strict(const std::string& name,
                                            std::int64_t fallback) const;

  /// get_int_strict narrowed to the field it sets: also throws
  /// std::invalid_argument ("--name: expected an integer in [lo, hi], got
  /// 'X'") when T cannot hold the value, so an unsigned field rejects a
  /// negative count and a 32-bit one rejects 2^32, where a cast would wrap
  /// them into a different, valid-looking setting.
  template <typename T>
  [[nodiscard]] T get_int_as(const std::string& name, T fallback) const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    const std::int64_t v =
        get_int_strict(name, static_cast<std::int64_t>(fallback));
    if (!std::in_range<T>(v)) {
      reject_range(name, v, std::to_string(std::numeric_limits<T>::min()),
                   std::to_string(std::numeric_limits<T>::max()));
    }
    return static_cast<T>(v);
  }

  /// Like get_int_strict for floating-point values. Accepts byte suffixes
  /// nowhere — plain decimal only.
  [[nodiscard]] double get_double_strict(const std::string& name,
                                         double fallback) const;

  /// Byte-count value with optional K/M/G suffix (powers of 1024), e.g.
  /// --mem-budget=64M. Throws std::invalid_argument on malformed values.
  [[nodiscard]] std::uint64_t get_bytes_strict(const std::string& name,
                                               std::uint64_t fallback) const;

  /// Flag names seen that are not in `known` (for error reporting).
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  void parse(const std::vector<std::string>& args);
  [[noreturn]] static void reject_range(const std::string& name,
                                        std::int64_t value,
                                        const std::string& lo,
                                        const std::string& hi);

  std::set<std::string> bool_flags_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

}  // namespace commscope::support
