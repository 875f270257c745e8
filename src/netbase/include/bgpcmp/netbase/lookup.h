// Point-lookup hash containers with no iteration.
//
// Hash-container iteration order is unspecified and must never shape output
// or RNG draw order. LookupMap/LookupSet wrap std::unordered_map/set (same
// hash and container, so lookups cost the same) and have no begin()/end():
// range-for, iterator loops and std::begin() escapes do not compile (the
// lookup_iter_* ctests), and detlint R7 bans raw std::unordered_* in src/.
#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace bgpcmp {

/// Key -> value hash map with point lookups only.
template <class K, class V, class Hash = std::hash<K>>
class LookupMap {
 public:
  /// The mapped value for `key`, or nullptr when absent.
  [[nodiscard]] const V* find(const K& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] bool contains(const K& key) const { return map_.contains(key); }
  /// The mapped value for `key`; throws std::out_of_range if absent.
  [[nodiscard]] const V& at(const K& key) const { return map_.at(key); }
  /// Insert (key, value) unless `key` is present. Returns the mapped value
  /// now stored under `key` and whether this call inserted it.
  std::pair<V&, bool> try_emplace(const K& key, V value) {
    const auto [it, inserted] = map_.try_emplace(key, std::move(value));
    return {it->second, inserted};
  }
  /// Remove `key`; true if it was present.
  bool erase(const K& key) { return map_.erase(key) != 0; }
  void reserve(std::size_t n) { map_.reserve(n); }
  void clear() { map_.clear(); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<K, V, Hash> map_;
};

/// Hash set with membership tests only.
template <class K, class Hash = std::hash<K>>
class LookupSet {
 public:
  [[nodiscard]] bool contains(const K& key) const { return set_.contains(key); }
  /// Insert `key`; true if it was absent.
  bool insert(const K& key) { return set_.insert(key).second; }
  /// Remove `key`; true if it was present.
  bool erase(const K& key) { return set_.erase(key) != 0; }
  void reserve(std::size_t n) { set_.reserve(n); }
  void clear() { set_.clear(); }
  [[nodiscard]] std::size_t size() const { return set_.size(); }

 private:
  std::unordered_set<K, Hash> set_;
};

}  // namespace bgpcmp
