// SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104).
//
// A real hash function, not a toy: the blockchain's integrity checks, Merkle
// proofs and identity derivations all go through here, and the unit tests
// validate against the NIST test vectors.
//
// The compression function has two implementations: the portable one below
// and, on x86-64, one built on the SHA extensions (sha256rnds2/msg1/msg2).
// The process picks one the first time it hashes, from CPUID, and keeps it;
// there is no setting. Both produce the same digests.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/hash.hpp"
#include "crypto/sha256_detail.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace decentnet::crypto {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// Runs the compression function over `blocks` consecutive 64-byte blocks.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) |
             (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) |
             std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH, and run two rounds per sha256rnds2. Each group of four rounds adds
// four message words; sha256msg1/msg2 extend the schedule four words at a
// time, so m[g % 4] holds words 4g..4g+3 when group g runs.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_hw(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);  // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);  // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = m[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = m[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        __m128i& prev = m[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);  // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);  // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

CompressFn detect_hw() {
  // Hashing may happen before constructors run (static initialisers), so
  // the CPU model is initialised here rather than assumed.
  __builtin_cpu_init();
  const bool has_sha = __builtin_cpu_supports("sha") &&
                       __builtin_cpu_supports("sse4.1") &&
                       __builtin_cpu_supports("ssse3");
  return has_sha ? compress_hw : nullptr;
}
#else
CompressFn detect_hw() { return nullptr; }
#endif

/// The SHA-extension compression function, or null when the build or the
/// CPU lacks it. Detected once per process, in a function-local static so
/// that hashing from a static initialiser is safe.
CompressFn hw_compress() {
  static const CompressFn fn = detect_hw();
  return fn;
}

CompressFn dispatched_compress() {
  const CompressFn hw = hw_compress();
  return hw != nullptr ? hw : compress_portable;
}

CompressFn required_hw_compress() {
  const CompressFn hw = hw_compress();
  if (hw == nullptr) {
    throw std::logic_error("sha256: CPU lacks the SHA extensions");
  }
  return hw;
}

class Sha256Ctx {
 public:
  explicit Sha256Ctx(CompressFn compress) : compress_(compress) {}

  void update(const std::uint8_t* data, std::size_t len) {
    if (len == 0) return;
    total_ += len;
    if (buffered_ > 0) {
      const std::size_t take = std::min(len, std::size_t{64} - buffered_);
      std::memcpy(buf_ + buffered_, data, take);
      buffered_ += take;
      data += take;
      len -= take;
      if (buffered_ < 64) return;
      compress_(h_, buf_, 1);
      buffered_ = 0;
    }
    const std::size_t blocks = len / 64;
    if (blocks > 0) {
      compress_(h_, data, blocks);
      data += 64 * blocks;
      len -= 64 * blocks;
    }
    if (len > 0) {
      std::memcpy(buf_, data, len);
      buffered_ = len;
    }
  }

  Hash256 finish() {
    // 0x80, zeros, then the 64-bit big-endian bit length: one block if the
    // tail leaves room for the 9 bytes, else two.
    const std::uint64_t bit_len = total_ * 8;
    const std::size_t padded = buffered_ < 56 ? 64 : 128;
    buf_[buffered_] = 0x80;
    std::memset(buf_ + buffered_ + 1, 0, padded - 8 - buffered_ - 1);
    for (int i = 0; i < 8; ++i) {
      buf_[padded - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    compress_(h_, buf_, padded / 64);
    Hash256 out;
    for (int i = 0; i < 8; ++i) {
      out.bytes[static_cast<std::size_t>(4 * i)] =
          static_cast<std::uint8_t>(h_[i] >> 24);
      out.bytes[static_cast<std::size_t>(4 * i + 1)] =
          static_cast<std::uint8_t>(h_[i] >> 16);
      out.bytes[static_cast<std::size_t>(4 * i + 2)] =
          static_cast<std::uint8_t>(h_[i] >> 8);
      out.bytes[static_cast<std::size_t>(4 * i + 3)] =
          static_cast<std::uint8_t>(h_[i]);
    }
    return out;
  }

 private:
  CompressFn compress_;
  std::uint32_t h_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint8_t buf_[128];  // one block of input, two for the final padding
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

Hash256 sha256_with(CompressFn compress, std::span<const std::uint8_t> data) {
  Sha256Ctx ctx(compress);
  ctx.update(data.data(), data.size());
  return ctx.finish();
}

Hash256 hmac_with(CompressFn compress, std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> message) {
  std::uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Hash256 kh = sha256_with(compress, key);
    std::memcpy(key_block, kh.bytes.data(), 32);
  } else if (!key.empty()) {
    std::memcpy(key_block, key.data(), key.size());
  }
  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  Sha256Ctx inner(compress);
  inner.update(ipad, 64);
  inner.update(message.data(), message.size());
  const Hash256 inner_hash = inner.finish();
  Sha256Ctx outer(compress);
  outer.update(opad, 64);
  outer.update(inner_hash.bytes.data(), 32);
  return outer.finish();
}

}  // namespace

Hash256 sha256(std::span<const std::uint8_t> data) {
  return sha256_with(dispatched_compress(), data);
}

Hash256 sha256(std::string_view data) { return sha256(as_bytes(data)); }

Hash256 sha256d(std::span<const std::uint8_t> data) {
  const Hash256 first = sha256(data);
  return sha256(std::span<const std::uint8_t>(first.bytes));
}

Hash256 hmac_sha256(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> message) {
  return hmac_with(dispatched_compress(), key, message);
}

namespace detail {

bool sha256_hw_supported() { return hw_compress() != nullptr; }

Hash256 sha256_portable(std::span<const std::uint8_t> data) {
  return sha256_with(compress_portable, data);
}

Hash256 hmac_sha256_portable(std::span<const std::uint8_t> key,
                             std::span<const std::uint8_t> message) {
  return hmac_with(compress_portable, key, message);
}

Hash256 sha256_hw(std::span<const std::uint8_t> data) {
  return sha256_with(required_hw_compress(), data);
}

Hash256 hmac_sha256_hw(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> message) {
  return hmac_with(required_hw_compress(), key, message);
}

}  // namespace detail

std::string Hash256::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (auto b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

std::string Hash256::short_hex(std::size_t n) const {
  return hex().substr(0, n);
}

Hash256 Hash256::from_hex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Hash256 h;
  for (std::size_t i = 0; i + 1 < hex.size() && i / 2 < 32; i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) break;
    h.bytes[i / 2] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return h;
}

}  // namespace decentnet::crypto
