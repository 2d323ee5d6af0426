// Hashing for the model checker's visited-state sets, where states are flat
// vectors of 32-bit words. HashWords is the hot path (called once per stored
// state) and mixes a 64-bit lane at a time, xxhash/wyhash-style; HashBytes
// keeps the byte-at-a-time FNV-1a for odd-sized callers.

#ifndef SRC_SUPPORT_HASH_H_
#define SRC_SUPPORT_HASH_H_

#include <cstdint>
#include <span>

namespace efeu {

inline uint64_t HashBytes(const void* data, size_t size, uint64_t seed = 0xcbf29ce484222325ull) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Finalizer with full avalanche (the 64-bit murmur3/splitmix mix): every
// input bit flips each output bit with probability ~1/2.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// Word-at-a-time state fingerprint: consumes two 32-bit state words per
// multiply-xor-rotate round instead of FNV's one-multiply-per-byte, then runs
// the final avalanche mix. Roughly 8x fewer multiplies per state than the
// byte-at-a-time loop on the visited-set hot path.
//
// It also comes in resumable steps, for a caller that keeps a long vector
// and rehashes it after changing words only past some point: with
// lanes = words.size() / 2,
//   HashWordsFinish(HashWordsLanes(HashWordsStart(words.size()), words, 0, lanes), words)
// equals HashWords(words), and the running value after any lane can be kept
// and resumed from.
inline constexpr uint64_t kHashWordsSeed = 0xcbf29ce484222325ull;

inline uint64_t HashWordsStart(size_t size, uint64_t seed = kHashWordsSeed) {
  return seed ^ (static_cast<uint64_t>(size) * 0x9e3779b97f4a7c15ull);
}

// Consumes lanes [first_lane, end_lane): lane i is words 2i and 2i + 1.
inline uint64_t HashWordsLanes(uint64_t hash, std::span<const int32_t> words, size_t first_lane,
                               size_t end_lane) {
  for (size_t i = 2 * first_lane; i < 2 * end_lane; i += 2) {
    uint64_t lane = static_cast<uint64_t>(static_cast<uint32_t>(words[i])) |
                    (static_cast<uint64_t>(static_cast<uint32_t>(words[i + 1])) << 32);
    hash = (hash ^ lane) * 0xd6e8feb86659fd93ull;
    hash = (hash << 27) | (hash >> 37);
  }
  return hash;
}

// Consumes the odd trailing word, if any, and applies the final mix.
inline uint64_t HashWordsFinish(uint64_t hash, std::span<const int32_t> words) {
  if (words.size() % 2 != 0) {
    hash = (hash ^ static_cast<uint32_t>(words.back())) * 0xd6e8feb86659fd93ull;
  }
  return Mix64(hash);
}

inline uint64_t HashWords(std::span<const int32_t> words, uint64_t seed = kHashWordsSeed) {
  return HashWordsFinish(
      HashWordsLanes(HashWordsStart(words.size(), seed), words, 0, words.size() / 2), words);
}

inline uint64_t CombineHash(uint64_t a, uint64_t b) {
  // Boost-style combiner; good enough for visited-set bucketing.
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}

}  // namespace efeu

#endif  // SRC_SUPPORT_HASH_H_
