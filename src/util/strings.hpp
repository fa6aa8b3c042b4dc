// strings.hpp — small string utilities shared by every MPH layer.
//
// The registration-file parser (src/mph/registry.cpp) is the main consumer:
// it needs whitespace-tolerant tokenization, comment stripping and strict
// numeric parsing with good error messages.  Everything here is allocation
// light and exception free except where documented.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mph::util {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on runs of ASCII whitespace; no empty tokens are produced.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Split on a single character delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on any one of the characters in `delims`; empty fields are
/// preserved.  The option-string parsers use this with ", ".
[[nodiscard]] std::vector<std::string_view> split_any(std::string_view s,
                                                      std::string_view delims);

/// Strip an end-of-line comment.  Both Fortran-style `!` (used by the paper's
/// registration files) and shell-style `#` introduce comments.
[[nodiscard]] std::string_view strip_comment(std::string_view line) noexcept;

/// Case-insensitive ASCII equality (registry keywords are case-insensitive).
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// True if `s` starts with `prefix` (exact case).
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Strict integer parse: the whole token must be consumed.
[[nodiscard]] std::optional<long long> parse_int(std::string_view s) noexcept;

/// Strict floating-point parse: the whole token must be consumed.
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// Parse booleans the way the paper's examples spell them: on/off,
/// true/false, yes/no, 1/0 (case-insensitive).
[[nodiscard]] std::optional<bool> parse_bool(std::string_view s) noexcept;

/// Join tokens with a separator; convenience for diagnostics.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// `"name=value"` → ("name","value"); returns nullopt when no '=' present
/// or the name part is empty.
[[nodiscard]] std::optional<std::pair<std::string_view, std::string_view>>
split_key_value(std::string_view token) noexcept;

/// A valid component name-tag: nonempty, no whitespace, none of the
/// structural registry keywords, and not itself a key=value token.
[[nodiscard]] bool valid_component_name(std::string_view s) noexcept;

}  // namespace mph::util
