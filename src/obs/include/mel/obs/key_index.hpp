// obs::KeyIndex: dense indexes for sparse integer keys (flow ids, ranks,
// rank pairs, names), handed out in first-seen order. Open addressing over a
// power-of-two slot table kept at most half full, so its memory follows
// the number of keys, never their values: a flow id of 2^62 costs what
// the id 1 does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace mel::obs {

template <class Key>
class KeyIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::size_t size() const { return keys_.size(); }
  const Key& key(std::uint32_t index) const { return keys_[index]; }

  /// The key's index, or kNone. `K` is Key or compares equal to one (a
  /// std::string_view for std::string keys).
  template <class K>
  std::uint32_t find(const K& key) const {
    if (slots_.empty()) return kNone;
    for (std::size_t s = hash(key) & mask();; s = (s + 1) & mask()) {
      const std::uint32_t slot = slots_[s];
      if (slot == 0) return kNone;
      if (keys_[slot - 1] == key) return slot - 1;
    }
  }

  /// The key's index; a new key gets the next one, size() before the call.
  template <class K>
  std::uint32_t find_or_add(const K& key) {
    if (2 * (keys_.size() + 1) > slots_.size()) grow();
    for (std::size_t s = hash(key) & mask();; s = (s + 1) & mask()) {
      const std::uint32_t slot = slots_[s];
      if (slot == 0) {
        keys_.emplace_back(key);
        slots_[s] = static_cast<std::uint32_t>(keys_.size());
        return static_cast<std::uint32_t>(keys_.size() - 1);
      }
      if (keys_[slot - 1] == key) return slot - 1;
    }
  }

 private:
  // The 64-bit finalizer of MurmurHash3: consecutive ids spread over the
  // whole table.
  static std::uint64_t mix(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    return k ^ (k >> 33);
  }
  static std::size_t hash(std::uint64_t k) {
    return static_cast<std::size_t>(mix(k));
  }
  static std::size_t hash(const std::pair<std::uint64_t, std::uint64_t>& k) {
    return static_cast<std::size_t>(mix(k.first ^ mix(k.second)));
  }
  static std::size_t hash(std::string_view k) {
    return std::hash<std::string_view>{}(k);
  }
  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<std::uint32_t> slots(slots_.empty() ? 64 : 2 * slots_.size(),
                                     0);
    slots_.swap(slots);
    for (std::uint32_t i = 0; i < keys_.size(); ++i) {
      std::size_t s = hash(keys_[i]) & mask();
      while (slots_[s] != 0) s = (s + 1) & mask();
      slots_[s] = i + 1;
    }
  }

  std::vector<Key> keys_;
  std::vector<std::uint32_t> slots_;  // index + 1; 0 marks an empty slot
};

}  // namespace mel::obs
