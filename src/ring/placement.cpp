#include "ring/placement.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lotec {

namespace {

std::vector<NodeId> all_nodes(std::size_t nodes) {
  std::vector<NodeId> out;
  out.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n)
    out.push_back(NodeId(static_cast<std::uint32_t>(n)));
  return out;
}

bool id_less(ObjectId a, ObjectId b) noexcept { return a.value() < b.value(); }

}  // namespace

bool Placement::set_member(NodeId /*node*/, bool /*joined*/) {
  throw UsageError("Placement: the static directory map has fixed membership "
                   "(enable gdo.ring)");
}

ModuloPlacement::ModuloPlacement(std::size_t nodes) : nodes_(nodes) {
  if (nodes_ == 0) throw UsageError("ModuloPlacement: no nodes");
}

std::vector<NodeId> ModuloPlacement::members() const {
  return all_nodes(nodes_);
}

RingPlacement::RingPlacement(std::size_t nodes, std::uint64_t seed,
                             std::size_t virtual_nodes,
                             std::size_t mirror_group)
    : mirror_group_(mirror_group), view_(nodes, 0) {
  if (mirror_group == 0 || mirror_group >= nodes)
    throw UsageError(
        "RingPlacement: mirror_group must lie in [1, nodes-1]; got " +
        std::to_string(mirror_group) + " with " + std::to_string(nodes) +
        " nodes");
  HashRing initial(seed, virtual_nodes);
  for (const NodeId n : all_nodes(nodes)) initial.add_node(n);
  history_.push_back(std::move(initial));
}

NodeId RingPlacement::owner_of(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring().owner_of(id);
}

NodeId RingPlacement::successor(ObjectId id, std::size_t k) const {
  if (k == 0) return NodeId{};
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<NodeId> succ = ring().successors(id, k);
  return succ.size() == k ? succ.back() : NodeId{};
}

std::vector<NodeId> RingPlacement::members() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring().members();
}

std::uint64_t RingPlacement::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_.size() - 1;
}

bool RingPlacement::set_member(NodeId node, bool joined) {
  std::lock_guard<std::mutex> lock(mu_);
  HashRing next = ring();
  if (joined) {
    if (!next.add_node(node)) return false;
  } else {
    if (next.num_members() <= 1 || !next.remove_node(node)) return false;
  }
  history_.push_back(std::move(next));
  // Re-derive the migration queue: exactly the entries whose residency no
  // longer matches the new placement (the minimal set, by ring
  // monotonicity), ascending id for a deterministic pump order.
  pending_.clear();
  for (const auto& [id, res] : resident_)
    if (ring().owner_of(id).value() != res) pending_.push_back(id);
  std::sort(pending_.begin(), pending_.end(), id_less);
  return true;
}

NodeId RingPlacement::resident_of(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = resident_.find(id);
  if (it == resident_.end()) return ring().owner_of(id);
  return NodeId(it->second);
}

void RingPlacement::set_resident(ObjectId id, NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  resident_[id] = node.value();
}

std::vector<ObjectId> RingPlacement::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

void RingPlacement::dequeue(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(pending_, id);
}

bool RingPlacement::queued(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::binary_search(pending_.begin(), pending_.end(), id, id_less);
}

NodeId RingPlacement::refresh_view(NodeId requester, ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t& view = view_[requester.value()];
  const std::uint64_t current = history_.size() - 1;
  if (view == current) return NodeId{};
  const NodeId believed = history_[view].owner_of(id);
  view = current;
  return believed;
}

}  // namespace lotec
