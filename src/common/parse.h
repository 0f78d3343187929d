// Strict number parsing shared by the fault-spec reader and the CLI flags:
// the whole string must be one base-10 value that fits the target type.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>

#include "common/status.h"

namespace dmac {

/// Parses a base-10 integer that fits `Int`, rejecting trailing characters
/// (`3x`) and out-of-range values instead of truncating them. `key` names
/// the value in the error message.
template <typename Int>
Status ParseInt(const std::string& key, const std::string& value, Int* out) {
  Int v{};
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    return Status::Invalid(key + ": integer out of range: '" + value + "'");
  }
  if (ec != std::errc() || end != last) {
    return Status::Invalid(key + ": expected an integer, got '" + value +
                           "'");
  }
  *out = v;
  return Status::Ok();
}

/// Converts a non-negative count of megabytes (MiB) to bytes, rejecting
/// counts whose byte value does not fit int64_t. `key` names the value in
/// the error message.
inline Status MegabytesToBytes(const std::string& key, int64_t mb,
                               int64_t* bytes) {
  if (mb < 0 || mb > (std::numeric_limits<int64_t>::max() >> 20)) {
    return Status::Invalid(key + ": " + std::to_string(mb) +
                           " MB is out of range in bytes");
  }
  *bytes = mb << 20;
  return Status::Ok();
}

/// Parses a finite decimal number; NaN and infinities are rejected.
inline Status ParseDouble(const std::string& key, const std::string& value,
                          double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
    return Status::Invalid(key + ": expected a finite number, got '" + value +
                           "'");
  }
  *out = v;
  return Status::Ok();
}

}  // namespace dmac
