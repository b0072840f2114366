#include "util/hash.h"

#include <array>
#include <cstring>

namespace xydiff {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Read64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl(acc, 31);
  acc *= kPrime1;
  return acc;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  acc ^= Round(0, val);
  acc = acc * kPrime1 + kPrime4;
  return acc;
}

inline uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

Signature HashBytes(std::string_view data, uint64_t seed) {
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t h;

  if (data.size() >= 32) {
    const char* const limit = end - 32;
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    do {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
      p += 32;
    } while (p <= limit);
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<uint64_t>(data.size());

  while (p + 8 <= end) {
    h ^= Round(0, Read64(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(Read32(p)) * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p)) * kPrime5;
    h = Rotl(h, 11) * kPrime1;
    ++p;
  }
  return Avalanche(h);
}

Signature HashCombine(Signature acc, Signature next) {
  // Order-sensitive mixing in the style of boost::hash_combine widened to
  // 64 bits; the rotation keeps long child sequences from cancelling.
  acc ^= next + kPrime1 + (acc << 6) + (acc >> 2);
  return Rotl(acc, 13) * kPrime2 + kPrime3;
}

Signature HashFinalize(Signature acc) { return Avalanche(acc); }

namespace {

/// CRC-64/XZ slicing-by-8 tables, generated once: reflected ECMA-182
/// polynomial. Table 0 is the classic bytewise table; table k advances
/// a byte through k further zero bytes, so one 8-byte step folds eight
/// independent lookups.
using Crc64Tables = std::array<std::array<uint64_t, 256>, 8>;

const Crc64Tables& Crc64Table() {
  static const Crc64Tables tables = [] {
    constexpr uint64_t kPoly = 0xC96C5795D7870F42ULL;  // reflected ECMA-182
    Crc64Tables t{};
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][static_cast<size_t>(i)] = crc;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (size_t i = 0; i < 256; ++i) {
        const uint64_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian load, assembled bytewise so the CRC is the same on any
/// host; optimizing compilers turn it into one load on an LE host.
inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

uint64_t Crc64(std::string_view data, uint64_t crc) {
  const Crc64Tables& t = Crc64Table();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const uint64_t w = crc ^ LoadLe64(p);
    crc = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
          t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^
          t[2][(w >> 40) & 0xFF] ^ t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

}  // namespace xydiff
