// Directory placement (PROTOCOL.md §3, §15): which node serves each GDO
// entry, and where its copies go.
//
// One interface answers every placement question the directory asks: an
// entry's owner, its distinct successors (the mirror group and the failover
// chain), where it resides right now, the placement epoch, and membership
// changes.  Two implementations:
//   * ModuloPlacement — the paper's static map `mix64(id) % nodes`: a ring
//     whose membership never changes.  The successors of the owner are
//     owner+1, owner+2, ...; the mirror group has one member; an entry
//     always resides at its owner; the epoch stays 0 and nothing ever
//     migrates.  No lock, no allocation on any lookup.
//   * RingPlacement — the elastic directory: a consistent-hash HashRing with
//     its epoch history, per-node observed views, residency map and
//     migration queue.
// The membership hooks default to the fixed behaviour, so ModuloPlacement
// only supplies the map itself.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "ring/hash_ring.hpp"

namespace lotec {

class Placement {
 public:
  Placement() = default;
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;
  virtual ~Placement() = default;

  /// The node `id`'s entry belongs on under the current membership.
  [[nodiscard]] virtual NodeId owner_of(ObjectId id) const = 0;

  /// The k-th distinct member after `id`'s owner (k >= 1; never the
  /// owner), or an invalid NodeId when fewer than k other members exist.
  [[nodiscard]] virtual NodeId successor(ObjectId id, std::size_t k) const = 0;

  /// Entry mutations replicate to the first mirror_group() successors.
  [[nodiscard]] virtual std::size_t mirror_group() const noexcept = 0;

  /// Members in ascending node-id order.
  [[nodiscard]] virtual std::vector<NodeId> members() const = 0;

  // --- membership changes (none under a fixed placement) ------------------

  /// Bumped by every membership change.
  [[nodiscard]] virtual std::uint64_t epoch() const { return 0; }

  /// Admit (`joined`) or retire `node`, bump the epoch and queue every
  /// entry the change re-owns.  False (nothing changes) when the change is
  /// a no-op or would empty the placement.  A fixed placement throws.
  virtual bool set_member(NodeId node, bool joined);

  /// Where `id`'s entry is served right now: its owner, or the old owner
  /// while its migration is still queued.
  [[nodiscard]] virtual NodeId resident_of(ObjectId id) const {
    return owner_of(id);
  }

  /// Record that `id`'s entry now lives at `node` (registration, handoff).
  virtual void set_resident(ObjectId /*id*/, NodeId /*node*/) {}

  /// Entries whose residency trails their owner, ascending id.
  [[nodiscard]] virtual std::vector<ObjectId> pending() const { return {}; }

  /// Take `id` off the migration queue (it reached its owner).
  virtual void dequeue(ObjectId /*id*/) {}

  /// Is `id` on the migration queue?
  [[nodiscard]] virtual bool queued(ObjectId /*id*/) const { return false; }

  /// `requester` observes the current epoch.  Returns the owner of `id`
  /// under the older view it held until now, or an invalid NodeId when its
  /// view was already current.
  virtual NodeId refresh_view(NodeId /*requester*/, ObjectId /*id*/) {
    return NodeId{};
  }
};

/// The static map: `mix64(id) % nodes`, fixed membership.
class ModuloPlacement final : public Placement {
 public:
  explicit ModuloPlacement(std::size_t nodes);

  [[nodiscard]] NodeId owner_of(ObjectId id) const override {
    return NodeId(static_cast<std::uint32_t>(mix64(id.value()) % nodes_));
  }
  [[nodiscard]] NodeId successor(ObjectId id, std::size_t k) const override {
    if (k == 0 || k >= nodes_) return NodeId{};
    return NodeId(
        static_cast<std::uint32_t>((owner_of(id).value() + k) % nodes_));
  }
  [[nodiscard]] std::size_t mirror_group() const noexcept override {
    return 1;
  }
  [[nodiscard]] std::vector<NodeId> members() const override;

 private:
  std::size_t nodes_;
};

/// The elastic directory: consistent-hash placement over a changing
/// membership.  Every member of `nodes` starts in the ring.
class RingPlacement final : public Placement {
 public:
  RingPlacement(std::size_t nodes, std::uint64_t seed,
                std::size_t virtual_nodes, std::size_t mirror_group);

  [[nodiscard]] NodeId owner_of(ObjectId id) const override;
  [[nodiscard]] NodeId successor(ObjectId id, std::size_t k) const override;
  [[nodiscard]] std::size_t mirror_group() const noexcept override {
    return mirror_group_;
  }
  [[nodiscard]] std::vector<NodeId> members() const override;
  [[nodiscard]] std::uint64_t epoch() const override;
  bool set_member(NodeId node, bool joined) override;
  [[nodiscard]] NodeId resident_of(ObjectId id) const override;
  void set_resident(ObjectId id, NodeId node) override;
  [[nodiscard]] std::vector<ObjectId> pending() const override;
  void dequeue(ObjectId id) override;
  [[nodiscard]] bool queued(ObjectId id) const override;
  NodeId refresh_view(NodeId requester, ObjectId id) override;

 private:
  [[nodiscard]] const HashRing& ring() const { return history_.back(); }

  std::size_t mirror_group_;
  /// Guards everything below.  The token scheduler runs one family at a
  /// time, so contention is nil; the lock keeps the introspection
  /// accessors safe from arbitrary threads.
  mutable std::mutex mu_;
  /// Ring per placement epoch: history_[e] is the membership a node whose
  /// view is e believes in (redirect modeling); the epoch is
  /// history_.size() - 1.
  std::vector<HashRing> history_;
  /// Last placement epoch each node has observed.
  std::vector<std::uint64_t> view_;
  /// Where each registered entry currently lives.
  FlatMap<ObjectId, std::uint32_t> resident_;
  /// Entries whose residency trails the ring owner, ascending id (the
  /// deterministic migration order).
  std::vector<ObjectId> pending_;
};

}  // namespace lotec
