// JSON for the repo's document formats: one value tree, one strict reader
// and one string quoter. The calibration table (CALIBRATION.json,
// BENCH_kernels.json), the Chrome-trace validator, the trace exporters and
// dmac_lint's JSON output all go through this module, so every reader
// agrees on what is malformed and every writer escapes strings alike.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dmac {

/// Deepest array/object nesting ParseJson accepts. The reader recurses
/// once per level, so a bound keeps hostile input (a megabyte of '[') an
/// error instead of a stack overflow. DMac's documents nest at most 4 deep.
inline constexpr int kJsonMaxDepth = 256;

/// One parsed JSON value.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order, duplicates included.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member named `key`, or nullptr. When a key repeats, the last
  /// occurrence wins (as in Python's json module).
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one RFC 8259 JSON document. Strict: numbers follow the JSON
/// grammar (no '+', leading '.', leading zeros or trailing garbage) and must
/// be finite doubles; strings reject raw control characters and unknown
/// escapes; `\uXXXX` (surrogate pairs included) decodes to UTF-8; other
/// bytes pass through unchecked. Nesting deeper than kJsonMaxDepth and
/// anything after the top-level value are errors. Every error is
/// kInvalidArgument naming the byte offset.
Result<JsonValue> ParseJson(const std::string& text);

/// `s` as a JSON string literal, quotes included: '"', '\\', '\n', '\t' and
/// '\r' get short escapes, other bytes below 0x20 become `\u00XX`, and every
/// other byte is copied. ParseJson(JsonQuote(s)) returns `s`.
std::string JsonQuote(const std::string& s);

}  // namespace dmac
