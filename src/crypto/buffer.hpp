// Canonical byte serialization used wherever structures are hashed or signed
// (block headers, transactions, certificates). Fixed little-endian layout so
// digests are platform-independent.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/hash.hpp"

namespace decentnet::crypto {

class ByteWriter {
 public:
  ByteWriter& u8(std::uint8_t v) {
    buf_.push_back(v);
    return *this;
  }
  ByteWriter& u32(std::uint32_t v) { return little_endian(v); }
  ByteWriter& u64(std::uint64_t v) { return little_endian(v); }
  ByteWriter& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  ByteWriter& hash(const Hash256& h) {
    buf_.insert(buf_.end(), h.bytes.begin(), h.bytes.end());
    return *this;
  }
  ByteWriter& str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
    return *this;
  }
  ByteWriter& raw(std::span<const std::uint8_t> s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
    return *this;
  }

  std::span<const std::uint8_t> bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

  Hash256 sha256() const { return crypto::sha256(bytes()); }
  Hash256 sha256d() const { return crypto::sha256d(bytes()); }

 private:
  template <typename T>
  ByteWriter& little_endian(T v) {
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), le, le + sizeof(T));
    return *this;
  }

  std::vector<std::uint8_t> buf_;
};

}  // namespace decentnet::crypto
