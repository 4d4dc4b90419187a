// Crypto substrate tests: SHA-256 against FIPS/NIST vectors, HMAC-SHA256
// against RFC 4231 vectors, Merkle proofs across tree sizes, and the
// simulation signature scheme.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "crypto/buffer.hpp"
#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256_detail.hpp"
#include "sim/rng.hpp"

namespace dc = decentnet::crypto;

TEST(Sha256, NistVectorEmpty) {
  EXPECT_EQ(dc::sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, NistVectorAbc) {
  EXPECT_EQ(dc::sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, NistVectorTwoBlocks) {
  EXPECT_EQ(
      dc::sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const std::string input(1000000, 'a');
  EXPECT_EQ(dc::sha256(input).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundaries) {
  // 'x'-repeated messages around each padding edge: 55 bytes is the longest
  // tail that pads into one block, 56-63 need a second, 64/128 end on a
  // block boundary. Expected values from Python's hashlib.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
      {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464"},
  };
  for (const auto& [len, hex] : cases) {
    EXPECT_EQ(dc::sha256(std::string(len, 'x')).hex(), hex) << len << " bytes";
  }
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const auto once = dc::sha256("payload");
  const auto twice = dc::sha256d(dc::as_bytes("payload"));
  EXPECT_NE(once, twice);
  EXPECT_EQ(twice, dc::sha256(std::span<const std::uint8_t>(once.bytes)));
}

// The portable and hardware compression paths must give the same bytes on
// every message length around the block and padding edges (and from an
// unaligned start), on long random messages, and inside HMAC for keys
// shorter than, equal to and longer than a block.
namespace {

using Sha256Fn = dc::Hash256 (*)(std::span<const std::uint8_t>);
using HmacFn = dc::Hash256 (*)(std::span<const std::uint8_t>,
                               std::span<const std::uint8_t>);

void expect_same_digests(Sha256Fn sha_a, HmacFn hmac_a, Sha256Fn sha_b,
                         HmacFn hmac_b) {
  decentnet::sim::Rng rng(0x5A256);
  std::vector<std::uint8_t> buf(301);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::span<const std::uint8_t> msg(buf.data() + 1, len);
    EXPECT_EQ(sha_a(msg), sha_b(msg)) << len << " bytes";
  }
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> msg(4096);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(sha_a(msg), sha_b(msg)) << "random message " << i;
  }
  for (const std::size_t key_len : {0, 32, 64, 65, 131}) {
    const std::vector<std::uint8_t> key(buf.begin(),
                                        buf.begin() + static_cast<long>(key_len));
    for (const std::size_t msg_len : {0, 1, 32, 55, 64, 200}) {
      const std::span<const std::uint8_t> msg(buf.data() + 7, msg_len);
      EXPECT_EQ(hmac_a(key, msg), hmac_b(key, msg))
          << "key " << key_len << " bytes, message " << msg_len << " bytes";
    }
  }
}

dc::Hash256 sha256_dispatched(std::span<const std::uint8_t> data) {
  return dc::sha256(data);
}

}  // namespace

TEST(Sha256Paths, PortableMatchesKnownAnswers) {
  EXPECT_EQ(dc::detail::sha256_portable(dc::as_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(dc::detail::sha256_portable(dc::as_bytes(std::string(1000000, 'a')))
                .hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(dc::detail::hmac_sha256_portable(
                key, dc::as_bytes("Test Using Larger Than Block-Size Key - "
                                  "Hash Key First"))
                .hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Sha256Paths, DispatchedAgreesWithPortable) {
  expect_same_digests(dc::detail::sha256_portable,
                      dc::detail::hmac_sha256_portable, sha256_dispatched,
                      dc::hmac_sha256);
}

TEST(Sha256Paths, HardwareAgreesWithPortable) {
  if (!dc::detail::sha256_hw_supported()) {
    GTEST_SKIP() << "CPU lacks the x86 SHA extensions";
  }
  expect_same_digests(dc::detail::sha256_portable,
                      dc::detail::hmac_sha256_portable, dc::detail::sha256_hw,
                      dc::detail::hmac_sha256_hw);
}

TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(dc::hmac_sha256(key, dc::as_bytes("Hi There")).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(dc::hmac_sha256(dc::as_bytes("Jefe"),
                            dc::as_bytes("what do ya want for nothing?"))
                .hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(dc::hmac_sha256(
                key, dc::as_bytes("Test Using Larger Than Block-Size Key - "
                                  "Hash Key First"))
                .hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hash256, HexRoundTrip) {
  const auto h = dc::sha256("round trip");
  EXPECT_EQ(dc::Hash256::from_hex(h.hex()), h);
}

TEST(Hash256, ComparisonIsBigEndianNumeric) {
  dc::Hash256 small, big;
  small.bytes[31] = 1;
  big.bytes[0] = 1;
  EXPECT_LT(small, big);
  EXPECT_TRUE(dc::Hash256{}.is_zero());
  EXPECT_FALSE(small.is_zero());
}

TEST(Hash256, XorDistanceProperties) {
  const auto a = dc::sha256("a");
  const auto b = dc::sha256("b");
  EXPECT_TRUE(a.distance_to(a).is_zero());
  EXPECT_EQ(a.distance_to(b), b.distance_to(a));
}

TEST(Hash256, LeadingZeroBits) {
  dc::Hash256 h;
  EXPECT_EQ(h.leading_zero_bits(), 256);
  h.bytes[0] = 0x80;
  EXPECT_EQ(h.leading_zero_bits(), 0);
  h.bytes[0] = 0x01;
  EXPECT_EQ(h.leading_zero_bits(), 7);
  h.bytes[0] = 0;
  h.bytes[2] = 0x10;
  EXPECT_EQ(h.leading_zero_bits(), 16 + 3);
}

TEST(Hash256, BitAccessor) {
  dc::Hash256 h;
  h.bytes[0] = 0x80;
  EXPECT_TRUE(h.bit(0));
  EXPECT_FALSE(h.bit(1));
  h.bytes[1] = 0x01;
  EXPECT_TRUE(h.bit(15));
}

TEST(ByteWriter, DeterministicDigest) {
  dc::ByteWriter w1, w2;
  w1.str("hello").u64(42).u32(7).u8(1);
  w2.str("hello").u64(42).u32(7).u8(1);
  EXPECT_EQ(w1.sha256(), w2.sha256());
  dc::ByteWriter w3;
  w3.str("hello").u64(43).u32(7).u8(1);
  EXPECT_NE(w1.sha256(), w3.sha256());
}

TEST(ByteWriter, LittleEndianLayout) {
  dc::ByteWriter w;
  w.str("hello").u64(0x0102030405060708ull).u32(0xA1B2C3D4u).u8(0x7f).i64(-2);
  std::string hex;
  for (const std::uint8_t b : w.bytes()) {
    static constexpr char kHex[] = "0123456789abcdef";
    hex += kHex[b >> 4];
    hex += kHex[b & 0xF];
  }
  EXPECT_EQ(hex,
            "050000000000000068656c6c6f0807060504030201d4c3b2a17ffeffffffffff"
            "ffff");
}

TEST(Keys, SignVerifyRoundTrip) {
  auto& authority = dc::KeyAuthority::global();
  const dc::PrivateKey key = authority.issue(12345);
  const auto sig = key.sign("message");
  EXPECT_TRUE(authority.verify(key.public_key(), "message", sig));
  EXPECT_FALSE(authority.verify(key.public_key(), "other message", sig));
}

TEST(Keys, UnknownKeyFailsVerification) {
  const dc::PrivateKey unregistered = dc::PrivateKey::from_seed(999999999);
  const auto sig = unregistered.sign("m");
  // The authority never saw this key pair.
  EXPECT_FALSE(dc::KeyAuthority::global().verify(unregistered.public_key(),
                                                 "m", sig));
}

TEST(Keys, WrongKeyCannotForge) {
  auto& authority = dc::KeyAuthority::global();
  const dc::PrivateKey alice = authority.issue(111);
  const dc::PrivateKey mallory = authority.issue(222);
  const auto forged = mallory.sign("pay mallory");
  EXPECT_FALSE(authority.verify(alice.public_key(), "pay mallory", forged));
}

TEST(Keys, DeterministicFromSeed) {
  EXPECT_EQ(dc::PrivateKey::from_seed(7).public_key(),
            dc::PrivateKey::from_seed(7).public_key());
  EXPECT_NE(dc::PrivateKey::from_seed(7).public_key(),
            dc::PrivateKey::from_seed(8).public_key());
}

// --- Merkle trees, parameterized over leaf counts ---------------------------

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllProofsVerify) {
  const std::size_t n = GetParam();
  std::vector<dc::Hash256> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(dc::sha256("leaf-" + std::to_string(i)));
  }
  dc::MerkleTree tree(leaves);
  EXPECT_EQ(tree.leaf_count(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto proof = tree.prove(i);
    EXPECT_TRUE(dc::MerkleTree::verify(leaves[i], i, proof, tree.root()))
        << "leaf " << i << " of " << n;
    // A different leaf must not verify with this proof.
    const auto wrong = dc::sha256("tampered");
    EXPECT_FALSE(dc::MerkleTree::verify(wrong, i, proof, tree.root()));
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33,
                                           100));

TEST(Merkle, EmptyTreeHasZeroRoot) {
  dc::MerkleTree tree({});
  EXPECT_TRUE(tree.root().is_zero());
  EXPECT_TRUE(dc::MerkleTree::compute_root({}).is_zero());
}

TEST(Merkle, ComputeRootMatchesTree) {
  std::vector<dc::Hash256> leaves;
  for (int i = 0; i < 13; ++i) leaves.push_back(dc::sha256(std::to_string(i)));
  dc::MerkleTree tree(leaves);
  EXPECT_EQ(dc::MerkleTree::compute_root(leaves), tree.root());
}

TEST(Merkle, ParentHashesTheConcatenatedPair) {
  const auto a = dc::sha256("left");
  const auto b = dc::sha256("right");
  dc::ByteWriter w;
  w.hash(a).hash(b);
  EXPECT_EQ(dc::MerkleTree::compute_root({a, b}), w.sha256());
  // Five leaves sha256("0")..sha256("4"), odd levels duplicate their last
  // node; expected root from Python's hashlib.
  std::vector<dc::Hash256> leaves;
  for (int i = 0; i < 5; ++i) leaves.push_back(dc::sha256(std::to_string(i)));
  EXPECT_EQ(dc::MerkleTree::compute_root(leaves).hex(),
            "ac099a1ac20c81168ed2e93ca53f8c5e951f9f35741067df028577319aa0dea0");
}

TEST(Merkle, ProofWithWrongIndexFails) {
  std::vector<dc::Hash256> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(dc::sha256(std::to_string(i)));
  dc::MerkleTree tree(leaves);
  const auto proof = tree.prove(3);
  EXPECT_FALSE(dc::MerkleTree::verify(leaves[3], 4, proof, tree.root()));
}

TEST(Merkle, ProveOutOfRangeThrows) {
  dc::MerkleTree tree({dc::sha256("only")});
  EXPECT_THROW(tree.prove(1), std::out_of_range);
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  std::vector<dc::Hash256> leaves;
  for (int i = 0; i < 6; ++i) leaves.push_back(dc::sha256(std::to_string(i)));
  const auto root = dc::MerkleTree::compute_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i] = dc::sha256("mutated");
    EXPECT_NE(dc::MerkleTree::compute_root(mutated), root);
  }
}
