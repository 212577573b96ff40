// lazyhb/support/hash.hpp
//
// Hashing primitives used throughout the library.
//
// Two families live here. The scalar seed hashes — mix64 (the splitmix64
// finaliser), hashCombine and everything derived from them (support::Rng,
// object uids, value hashes) — are fixed: random walks and perfbench derive
// their seeds from them, so changing one changes which walks run.
//
// The partial-order fingerprints at the heart of lazy-HBR caching are built
// from the other family, which sits on the per-event path: a 128-bit value
// type with order-sensitive mixing and an order-*insensitive* multiset
// accumulator over such values. Their mixer is a multiply-fold: one
// 64x64->128-bit multiply of the two (keyed) inputs, whose high and low
// halves are xored together (wyhash's "mum"). Every bit of a product's high
// half depends on every bit of both factors, so every output bit depends on
// every input bit, at one multiply per 64-bit output word.
//
// 128-bit collision argument. Each word of a Hash128 comes from its own
// chain of keyed multiply-folds: mixedWith and the multiset accumulator mix
// lo words only with lo words and hi words with hi words, and hash128
// computes its two words from the same inputs under different keys.
// Treating a keyed multiply-fold as a random function of its two inputs,
// two different inputs collide in one word with probability ~2^-64 and in
// the other independently, so two distinct partial orders share a
// fingerprint with probability ~2^-128: over 10^9 distinct prefixes (~2^59
// pairs) that is below 2^-68. The fold is not a bijection (a factor that
// xors to zero annihilates the other input), but hitting a key exactly is
// itself a 2^-64 event per mix. An event label's two inner words (thread x
// per-thread index x kind, object x mutex x aux) are 64 bits each;
// tests/test_support.cpp feeds 2^20 structured labels (sequential uids x
// indices x op kinds) through the mixer and finds no collision in either
// word of the result.

#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace lazyhb::support {

/// Final mixing step of splitmix64. Bijective on 64-bit values; excellent
/// avalanche behaviour. This is the workhorse scalar mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combine two 64-bit values into one, order-sensitively.
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t a,
                                                  std::uint64_t b) noexcept {
  // boost::hash_combine-style with a stronger finaliser.
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// The fingerprint mixer's primitive: the 128-bit product of `a` and `b`,
/// folded to 64 bits by xoring its high and low halves.
[[nodiscard]] constexpr std::uint64_t mulFold(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^ static_cast<std::uint64_t>(product >> 64);
}

namespace detail {
/// The fingerprint mixers' keys: the first outputs of splitmix64 seeded
/// with 0 (no hand-picked constants), made odd. Each mixing step xors its
/// two inputs with its own pair of keys before the multiply.
inline constexpr std::array<std::uint64_t, 22> kMixKeys = [] {
  std::array<std::uint64_t, 22> keys{};
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    keys[i] = mix64(0x9e3779b97f4a7c15ULL * (i + 1)) | 1;
  }
  return keys;
}();
}  // namespace detail

/// Keyed multiply-fold of two 64-bit words into one, order-sensitively.
[[nodiscard]] constexpr std::uint64_t foldPair(std::uint64_t a, std::uint64_t b) noexcept {
  return mulFold(a ^ detail::kMixKeys[0], b ^ detail::kMixKeys[1]);
}

/// A 128-bit hash value. Used for partial-order fingerprints where the cost
/// of a collision is a silently-pruned schedule (see the collision argument
/// above).
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend constexpr bool operator==(const Hash128&, const Hash128&) = default;

  /// Order-sensitive combine of two 128-bit hashes, one multiply per word.
  /// By value throughout: Hash128 is two registers under the SysV ABI, so
  /// indirection would only add a load on the per-event fingerprint path.
  [[nodiscard]] constexpr Hash128 mixedWith(Hash128 o) const noexcept {
    return Hash128{mulFold(lo ^ detail::kMixKeys[2], o.lo ^ detail::kMixKeys[3]),
                   mulFold(hi ^ detail::kMixKeys[4], o.hi ^ detail::kMixKeys[5])};
  }

  /// Mix one 64-bit word into both halves (an observed value into a label).
  [[nodiscard]] constexpr Hash128 mixedWith(std::uint64_t word) const noexcept {
    return mixedWith(Hash128{word, word});
  }

  /// True iff this is the default (all-zero) hash.
  [[nodiscard]] constexpr bool isZero() const noexcept { return lo == 0 && hi == 0; }

  /// Render as 32 hex digits (for logs and debugging).
  [[nodiscard]] std::string toHex() const;
};

/// Hash a 64-bit value into a 128-bit one using two independent streams.
[[nodiscard]] constexpr Hash128 hash128(std::uint64_t x) noexcept {
  return Hash128{mulFold(x ^ detail::kMixKeys[6], detail::kMixKeys[7]),
                 mulFold(x ^ detail::kMixKeys[8], detail::kMixKeys[9])};
}

/// Hash a pair, order-sensitively: one keyed multiply-fold per word.
[[nodiscard]] constexpr Hash128 hash128(std::uint64_t a, std::uint64_t b) noexcept {
  return Hash128{mulFold(a ^ detail::kMixKeys[10], b ^ detail::kMixKeys[11]),
                 mulFold(a ^ detail::kMixKeys[12], b ^ detail::kMixKeys[13])};
}

/// FNV-1a over raw bytes; adequate for strings/labels off the hot path.
[[nodiscard]] inline std::uint64_t hashBytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

[[nodiscard]] inline std::uint64_t hashString(std::string_view s) noexcept {
  return hashBytes(s.data(), s.size());
}

/// Order-insensitive accumulator over a multiset of Hash128 values.
///
/// Equal multisets of element hashes produce equal accumulator values
/// regardless of insertion order. `sum` is a component-wise modular sum
/// (multiset-safe: duplicates accumulate rather than cancel as they would
/// under XOR alone); `zip` is a second, independent reduction that guards the
/// sum against structured-collision accidents. `count` disambiguates prefixes
/// of different lengths for free.
struct MultisetHash {
  std::uint64_t sumLo = 0;
  std::uint64_t sumHi = 0;
  std::uint64_t zip = 0;
  std::uint64_t count = 0;

  constexpr void add(Hash128 h) noexcept {
    sumLo += h.lo;
    sumHi += h.hi;
    zip += zipTerm(h);
    ++count;
  }

  /// Remove a previously-added element (sum/zip are abelian-group valued).
  constexpr void remove(Hash128 h) noexcept {
    sumLo -= h.lo;
    sumHi -= h.hi;
    zip -= zipTerm(h);
    --count;
  }

  [[nodiscard]] constexpr Hash128 digest() const noexcept {
    const std::uint64_t z = mulFold(zip ^ detail::kMixKeys[16], count ^ detail::kMixKeys[17]);
    return Hash128{mulFold(sumLo ^ detail::kMixKeys[18], z ^ detail::kMixKeys[19]),
                   mulFold(sumHi ^ detail::kMixKeys[20], z ^ detail::kMixKeys[21])};
  }

  friend constexpr bool operator==(const MultisetHash&, const MultisetHash&) = default;

 private:
  /// An element's share of `zip`: both of its words, folded nonlinearly.
  [[nodiscard]] static constexpr std::uint64_t zipTerm(Hash128 h) noexcept {
    return mulFold(h.lo ^ detail::kMixKeys[14], h.hi ^ detail::kMixKeys[15]);
  }
};

/// std::hash adaptor so Hash128 can key unordered containers directly.
/// Every key is a multiply-fold digest (MultisetHash::digest, mixedWith,
/// hash128) whose words are already uniform, so the low word serves as the
/// bucket hash as it stands.
struct Hash128Hasher {
  [[nodiscard]] std::size_t operator()(Hash128 h) const noexcept {
    return static_cast<std::size_t>(h.lo);
  }
};

}  // namespace lazyhb::support
