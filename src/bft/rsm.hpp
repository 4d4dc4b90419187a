// Replicated-state-machine interface shared by PBFT (byzantine) and Raft
// (crash-fault) consensus. A Command is an opaque operation; replicas agree
// on a total order and fire on_commit exactly once per index.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"

namespace decentnet::bft {

struct Command {
  std::uint64_t id = 0;       // client-assigned, unique per client
  std::uint64_t client = 0;   // issuing client id
  std::string op;             // opaque payload
  std::size_t wire_bytes = 64;

  bool operator==(const Command& o) const {
    return id == o.id && client == o.client && op == o.op;
  }
};

/// Fired on each replica when a command reaches the committed prefix.
using CommitHook =
    std::function<void(std::uint64_t index, const Command& cmd)>;

/// A set of replica indices, one bit each: every vote, prepare, commit and
/// reply quorum in bft/ counts distinct replicas with it, so a duplicated
/// message never counts twice. Indices must be below kMaxReplicas, which
/// set_group enforces for every group (require_group_fits).
class ReplicaSet {
 public:
  static constexpr std::size_t kMaxReplicas = 64;

  /// Adds replica i; true if it was not in the set yet.
  bool insert(std::size_t i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    const bool added = (mask_ & bit) == 0;
    mask_ |= bit;
    return added;
  }
  bool contains(std::size_t i) const { return (mask_ >> i & 1) != 0; }
  std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  bool empty() const { return mask_ == 0; }

 private:
  std::uint64_t mask_ = 0;
};

/// Throws std::invalid_argument unless a group of `n` replicas fits in a
/// ReplicaSet; `who` names the caller in the message.
inline void require_group_fits(std::size_t n, const char* who) {
  if (n > ReplicaSet::kMaxReplicas) {
    throw std::invalid_argument(
        std::string(who) + ": group of " + std::to_string(n) +
        " replicas exceeds the " + std::to_string(ReplicaSet::kMaxReplicas) +
        "-replica limit");
  }
}

}  // namespace decentnet::bft
