#include "ring/hash_ring.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace lotec {

namespace {

/// Token point for one (node, replica) pair under `seed`.  Chained mixes:
/// each input perturbs the state before the next finalization, so nearby
/// node ids and replica indices land far apart on the circle.
constexpr std::uint64_t token_point(std::uint64_t seed, std::uint32_t node,
                                    std::size_t replica) noexcept {
  return mix64(mix64(mix64(seed) ^ node) ^
               static_cast<std::uint64_t>(replica));
}

}  // namespace

HashRing::HashRing(std::uint64_t seed, std::size_t virtual_nodes)
    : seed_(seed), virtual_nodes_(virtual_nodes) {
  if (virtual_nodes_ == 0)
    throw UsageError("HashRing: virtual_nodes must be positive");
}

bool HashRing::add_node(NodeId node) {
  if (!node.valid()) throw UsageError("HashRing::add_node: invalid node");
  const auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it != members_.end() && *it == node) return false;
  members_.insert(it, node);
  tokens_.reserve(tokens_.size() + virtual_nodes_);
  for (std::size_t r = 0; r < virtual_nodes_; ++r) {
    const Token t{token_point(seed_, node.value(), r), node.value()};
    tokens_.insert(std::lower_bound(tokens_.begin(), tokens_.end(), t), t);
  }
  return true;
}

bool HashRing::remove_node(NodeId node) {
  const auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it == members_.end() || *it != node) return false;
  members_.erase(it);
  std::erase_if(tokens_,
                [v = node.value()](const Token& t) { return t.node == v; });
  return true;
}

bool HashRing::contains(NodeId node) const noexcept {
  return std::binary_search(members_.begin(), members_.end(), node);
}

std::vector<NodeId> HashRing::members() const { return members_; }

std::size_t HashRing::first_token(ObjectId id) const {
  const std::uint64_t point = mix64(mix64(seed_) ^ id.value());
  const auto it = std::lower_bound(
      tokens_.begin(), tokens_.end(), point,
      [](const Token& t, std::uint64_t p) { return t.point < p; });
  return it == tokens_.end() ? 0 : static_cast<std::size_t>(
                                       it - tokens_.begin());
}

NodeId HashRing::owner_of(ObjectId id) const {
  if (tokens_.empty())
    throw UsageError("HashRing::owner_of: ring has no members");
  return NodeId(tokens_[first_token(id)].node);
}

std::vector<NodeId> HashRing::successors(ObjectId id,
                                         std::size_t count) const {
  std::vector<NodeId> out;
  if (tokens_.empty() || count == 0) return out;
  const std::size_t start = first_token(id);
  const std::uint32_t owner = tokens_[start].node;
  out.reserve(std::min(count, members_.size() - 1));
  // Walk clockwise collecting distinct nodes; at most one full revolution.
  for (std::size_t i = 1; i < tokens_.size() && out.size() < count; ++i) {
    const std::uint32_t n = tokens_[(start + i) % tokens_.size()].node;
    if (n == owner) continue;
    const NodeId candidate(n);
    if (std::find(out.begin(), out.end(), candidate) == out.end())
      out.push_back(candidate);
  }
  return out;
}

}  // namespace lotec
