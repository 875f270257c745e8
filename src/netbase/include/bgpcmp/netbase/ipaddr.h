// IPv4 addresses and prefixes.
//
// The simulation identifies client populations by prefix (the paper's unit of
// egress routing at a PoP is the <PoP, prefix, route> triple, and Fig 4 is a
// CDF over weighted /24s). We implement a compact value type plus parsing and
// containment so prefixes behave like the real thing in tests and examples.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace bgpcmp {

/// An IPv4 address as a host-order 32-bit value.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t host_order) : bits_(host_order) {}

  /// Parse dotted-quad notation ("192.0.2.1"). Returns nullopt on malformed
  /// input (out-of-range octet, wrong field count, junk characters).
  static std::optional<Ipv4Address> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t bits() const { return bits_; }
  [[nodiscard]] std::string str() const;

  constexpr auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t bits_ = 0;
};

/// An IPv4 prefix (address + length), e.g. 203.0.113.0/24.
/// Invariant: host bits below the mask are zero and 0 <= length <= 32.
class Prefix {
 public:
  constexpr Prefix() = default;

  /// Construct from an address and length; host bits are masked off so the
  /// invariant holds for any input.
  static constexpr Prefix make(Ipv4Address addr, std::uint8_t length) {
    const std::uint32_t mask = mask_for(length);
    return Prefix{Ipv4Address{addr.bits() & mask}, length};
  }

  [[nodiscard]] constexpr Ipv4Address network() const { return network_; }
  [[nodiscard]] constexpr std::uint8_t length() const { return length_; }

  [[nodiscard]] constexpr bool contains(Ipv4Address addr) const {
    return (addr.bits() & mask_for(length_)) == network_.bits();
  }
  /// True if `other` is equal to or more specific than this prefix.
  [[nodiscard]] constexpr bool covers(const Prefix& other) const {
    return other.length_ >= length_ && contains(other.network_);
  }
  /// Number of addresses in the prefix (2^(32-len)).
  [[nodiscard]] constexpr std::uint64_t size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  [[nodiscard]] std::string str() const;

  constexpr auto operator<=>(const Prefix&) const = default;

 private:
  constexpr Prefix(Ipv4Address network, std::uint8_t length)
      : network_(network), length_(length) {}

  static constexpr std::uint32_t mask_for(std::uint8_t length) {
    return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  }

  Ipv4Address network_;
  std::uint8_t length_ = 0;
};

}  // namespace bgpcmp

template <>
struct std::hash<bgpcmp::Ipv4Address> {
  std::size_t operator()(const bgpcmp::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.bits());
  }
};

template <>
struct std::hash<bgpcmp::Prefix> {
  std::size_t operator()(const bgpcmp::Prefix& p) const noexcept {
    return std::hash<std::uint32_t>{}(p.network().bits()) * 31u + p.length();
  }
};
