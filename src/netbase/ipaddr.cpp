#include "bgpcmp/netbase/ipaddr.h"

#include <charconv>

namespace bgpcmp {

namespace {

// Parse one decimal octet from [pos, text.size()); advances pos past the
// digits. Returns nullopt on empty/overlong/out-of-range octets.
std::optional<std::uint32_t> parse_octet(std::string_view text, std::size_t& pos) {
  const char* begin = text.data() + pos;
  const char* end = text.data() + text.size();
  std::uint32_t v = 0;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr == begin || v > 255) return std::nullopt;
  // Reject leading zeros like "01" (ambiguous octal in many parsers).
  if (ptr - begin > 1 && *begin == '0') return std::nullopt;
  pos += static_cast<std::size_t>(ptr - begin);
  return v;
}

}  // namespace

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::size_t pos = 0;
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
    auto octet = parse_octet(text, pos);
    if (!octet) return std::nullopt;
    bits = (bits << 8) | *octet;
  }
  if (pos != text.size()) return std::nullopt;
  return Ipv4Address{bits};
}

std::string Ipv4Address::str() const {
  std::string out;
  out.reserve(15);
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) out.push_back('.');
    out += std::to_string((bits_ >> shift) & 0xff);
  }
  return out;
}

std::string Prefix::str() const {
  return network_.str() + "/" + std::to_string(length_);
}

}  // namespace bgpcmp
