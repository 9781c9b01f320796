#ifndef WDPERF_JSON_H_
#define WDPERF_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// A small JSON reader for the server's responses (`/query` rows with
/// their `?stats=1&trace=1` trailer, `/write` acknowledgements). The
/// benchmark checks every answer, so it parses whole documents instead
/// of scraping fields.

namespace wdperf {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// The member `key` of an object, or null when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;
  /// The numeric member `key`, or `fallback`.
  double Number(const std::string& key, double fallback = 0) const;
};

/// Parses one complete document; false on malformed input.
bool ParseJson(std::string_view text, JsonValue* out);

}  // namespace wdperf

#endif  // WDPERF_JSON_H_
