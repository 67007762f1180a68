// Consistent-hash placement ring for the elastic GDO (PROTOCOL.md §15).
//
// The static directory maps an object to `mix64(id) % nodes` — cheap, but
// any change in the node count remaps nearly every object.  The ring instead
// hashes each member node to `virtual_nodes` seeded tokens on a 64-bit
// circle and assigns an object to the first token clockwise from the
// object's own hash.  A join or leave then moves only the key ranges
// adjacent to the changed node's tokens (monotonicity), which is what makes
// online shard migration affordable: the migrator has to move a 1/n-ish
// slice, not the whole directory.
//
// Everything is deterministic: token placement depends only on
// (seed, node, replica), ties break on the node id, and lookups are binary
// searches over a sorted vector — no unordered containers, no pointers, so
// two processes with the same membership history agree bit-for-bit on every
// placement (required by the TokenScheduler's replayable runs and by the
// wire transport, where each process computes placements independently).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"

namespace lotec {

class HashRing {
 public:
  /// An empty ring; `virtual_nodes` tokens are minted per member.
  explicit HashRing(std::uint64_t seed = 0, std::size_t virtual_nodes = 16);

  /// Add a member (idempotent; returns false if already present).
  bool add_node(NodeId node);

  /// Remove a member (idempotent; returns false if absent).
  bool remove_node(NodeId node);

  [[nodiscard]] bool contains(NodeId node) const noexcept;

  /// Members in ascending node-id order.
  [[nodiscard]] std::vector<NodeId> members() const;
  [[nodiscard]] std::size_t num_members() const noexcept {
    return members_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }

  /// The node owning `id`: first token clockwise from hash(id).  The ring
  /// must be non-empty.
  [[nodiscard]] NodeId owner_of(ObjectId id) const;

  /// The `count` distinct members following `id`'s owner clockwise (the
  /// object's mirror group).  Fewer are returned when the ring has fewer
  /// than count+1 members.  Never includes the owner.
  [[nodiscard]] std::vector<NodeId> successors(ObjectId id,
                                               std::size_t count) const;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t virtual_nodes() const noexcept {
    return virtual_nodes_;
  }

 private:
  struct Token {
    std::uint64_t point;
    std::uint32_t node;
    friend constexpr auto operator<=>(const Token&, const Token&) = default;
  };

  /// Index of the first token at or after hash(id), wrapping.
  [[nodiscard]] std::size_t first_token(ObjectId id) const;

  std::uint64_t seed_;
  std::size_t virtual_nodes_;
  /// Sorted by (point, node); ties on the raw point are broken by node id,
  /// so placement is a pure function of (seed, membership set).
  std::vector<Token> tokens_;
  /// Sorted member list (ascending node id).
  std::vector<NodeId> members_;
};

}  // namespace lotec
