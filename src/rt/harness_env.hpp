// Strict environment knobs for the rt harness binaries.
//
// Every knob is optional: unset or empty reads as its default.  A set value
// must parse completely (digits only for integers, a full strtod parse for
// reals) and fall inside the knob's range.  Anything else -- "abc", "4x",
// "-1", a value past the range -- prints the variable, its value and the
// accepted range to stderr and exits with status 2.  Harnesses read every
// knob at the top of main(), so a bad value stops the run before any worker
// thread starts instead of silently becoming 0.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace lf::rt {

[[noreturn]] inline void env_reject(const char* name, const std::string& value,
                                    const char* why) {
  std::fprintf(stderr, "error: %s=\"%s\": %s\n", name, value.c_str(), why);
  std::exit(2);
}

/// Parse one unsigned integer knob value in [lo, hi] or exit 2.
inline std::uint64_t env_parse_uint(const char* name, const std::string& text,
                                    std::uint64_t lo, std::uint64_t hi) {
  char range[96];
  std::snprintf(range, sizeof(range), "expected an integer in [%llu, %llu]",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
  // strtoull skips leading blanks and accepts a sign (negating the value),
  // so insist on a leading digit.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    env_reject(name, text, range);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) {
    env_reject(name, text, range);
  }
  return v;
}

/// Unsigned integer knob in [lo, hi].
inline std::size_t env_size(const char* name, std::size_t fallback,
                            std::size_t lo, std::size_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(env_parse_uint(name, v, lo, hi));
}

/// On/off knob: 0 or 1.
inline bool env_flag(const char* name, bool fallback) {
  return env_size(name, fallback ? 1 : 0, 0, 1) != 0;
}

/// Real-valued knob in [lo, hi] (NaN and infinities are out of range).
inline double env_double(const char* name, double fallback, double lo,
                         double hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char range[96];
  std::snprintf(range, sizeof(range), "expected a number in [%g, %g]", lo, hi);
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(x >= lo && x <= hi)) {
    env_reject(name, v, range);
  }
  return x;
}

/// Comma-separated list of unsigned integers, each in [lo, hi].  Unlike the
/// scalar knobs, a set-but-empty value is an empty list (a harness uses it
/// to skip a phase); `fallback` applies only when the variable is unset.
inline std::vector<std::size_t> env_size_list(const char* name,
                                              const char* fallback,
                                              std::size_t lo, std::size_t hi) {
  const char* v = std::getenv(name);
  const std::string s = v != nullptr ? v : fallback;
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (tok.empty()) env_reject(name, s, "empty list element");
    out.push_back(static_cast<std::size_t>(env_parse_uint(name, tok, lo, hi)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  // A trailing comma leaves an empty last element.
  if (!s.empty() && s.back() == ',') env_reject(name, s, "empty list element");
  return out;
}

}  // namespace lf::rt
