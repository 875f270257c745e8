// Whole-string numeric parsing for flags and environment variables; each
// caller decides what a rejected value costs (an exit status, a fallback).
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

namespace bgpcmp {

/// `text` as a decimal T, or nullopt unless the whole string is the number:
/// "2x", " 3", "+1", "" and out-of-range text never yield a prefix, a wrapped
/// or a narrowed value ("-1" is nullopt for an unsigned T), and a
/// floating-point T rejects "nan" and "inf".
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace bgpcmp
