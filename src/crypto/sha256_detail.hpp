// Internal: the two SHA-256 compression paths behind crypto::sha256.
//
// crypto::sha256 and crypto::hmac_sha256 pick one path per process (the x86
// SHA extensions when the CPU has them, the portable code otherwise). Tests
// and the kernel ablation use these entry points to check the two paths
// against each other and to time them side by side. Library code should
// call the public functions in hash.hpp instead.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/hash.hpp"

namespace decentnet::crypto::detail {

/// True when this build has the hardware path and the CPU supports it.
bool sha256_hw_supported();

/// One-shot hashes through the portable compression function.
Hash256 sha256_portable(std::span<const std::uint8_t> data);
Hash256 hmac_sha256_portable(std::span<const std::uint8_t> key,
                             std::span<const std::uint8_t> message);

/// One-shot hashes through the x86 SHA-extension compression function.
/// Precondition: sha256_hw_supported().
Hash256 sha256_hw(std::span<const std::uint8_t> data);
Hash256 hmac_sha256_hw(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> message);

}  // namespace decentnet::crypto::detail
