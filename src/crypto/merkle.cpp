#include "crypto/merkle.hpp"

#include <cstring>
#include <stdexcept>

namespace decentnet::crypto {

Hash256 MerkleTree::parent(const Hash256& left, const Hash256& right) {
  std::uint8_t pair[64];
  std::memcpy(pair, left.bytes.data(), 32);
  std::memcpy(pair + 32, right.bytes.data(), 32);
  return sha256(std::span<const std::uint8_t>(pair));
}

MerkleTree::MerkleTree(std::vector<Hash256> leaves)
    : leaf_count_(leaves.size()) {
  if (leaves.empty()) {
    root_ = Hash256{};
    return;
  }
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Hash256> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      const Hash256& left = prev[i];
      const Hash256& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(parent(left, right));
    }
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back().front();
}

MerkleProof MerkleTree::prove(std::size_t index) const {
  if (index >= leaf_count_) {
    throw std::out_of_range("MerkleTree::prove: leaf index out of range");
  }
  MerkleProof proof;
  std::size_t i = index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    const std::size_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    MerkleStep step;
    step.sibling_on_left = (i % 2 == 1);
    step.sibling = sibling < nodes.size() ? nodes[sibling] : nodes[i];
    proof.push_back(step);
    i /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Hash256& leaf, std::size_t index,
                        const MerkleProof& proof, const Hash256& root) {
  Hash256 acc = leaf;
  std::size_t i = index;
  for (const MerkleStep& step : proof) {
    // The proof's side flags must be consistent with the claimed index.
    if (step.sibling_on_left != (i % 2 == 1)) return false;
    acc = step.sibling_on_left ? parent(step.sibling, acc)
                               : parent(acc, step.sibling);
    i /= 2;
  }
  return acc == root;
}

Hash256 MerkleTree::compute_root(std::vector<Hash256> leaves) {
  if (leaves.empty()) return Hash256{};
  while (leaves.size() > 1) {
    std::vector<Hash256> next;
    next.reserve((leaves.size() + 1) / 2);
    for (std::size_t i = 0; i < leaves.size(); i += 2) {
      const Hash256& left = leaves[i];
      const Hash256& right = (i + 1 < leaves.size()) ? leaves[i + 1] : leaves[i];
      next.push_back(parent(left, right));
    }
    leaves = std::move(next);
  }
  return leaves.front();
}

}  // namespace decentnet::crypto
