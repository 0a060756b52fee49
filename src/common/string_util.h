#ifndef DBPC_COMMON_STRING_UTIL_H_
#define DBPC_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dbpc {

/// ASCII upper-case copy. Identifiers in all four languages of the
/// framework are case-insensitive and canonicalized to upper case, matching
/// 1979 card-deck conventions.
std::string ToUpper(std::string_view s);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// Strips leading/trailing whitespace.
std::string Trim(std::string_view s);

/// Splits on `sep`, trimming each piece; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix` (case-sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// True when the two identifiers are equal ignoring ASCII case.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Hash and equality for unordered containers keyed by case-insensitive
/// identifiers. Both are transparent, so a lookup by `std::string_view` or
/// a differently-cased `std::string` allocates nothing.
struct CaseInsensitiveHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const;
};
struct CaseInsensitiveEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return EqualsIgnoreCase(a, b);
  }
};

/// Valid identifier: [A-Za-z][A-Za-z0-9_-]* (hyphens are idiomatic in
/// CODASYL names such as DIV-EMP).
bool IsIdentifier(std::string_view s);

/// JSON string-literal escaping (quotes, backslashes, control bytes).
/// Shared by the metrics snapshot and the span exporters, whose names and
/// attribute values flow in from user sources.
std::string EscapeJsonString(std::string_view s);

}  // namespace dbpc

#endif  // DBPC_COMMON_STRING_UTIL_H_
