// Elastic directory (PROTOCOL.md §15): consistent-hash ring properties
// (balance, monotonicity, determinism), online shard migration under
// membership churn, quorum mirror groups, and the ring-ownership oracle —
// no entry may be lost or double-served across join/leave cycles.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "check/oracles.hpp"
#include "ring/placement.hpp"
#include "runtime/cluster.hpp"
#include "sim/validate.hpp"

namespace lotec {
namespace {

using check::FanoutSink;
using check::RingOwnershipOracle;
using check::SerializabilityOracle;

// --- pure ring properties ---------------------------------------------------

constexpr std::uint64_t kRingSeed = 0xB0A7;

std::map<std::uint32_t, std::size_t> load_of(const HashRing& ring,
                                             std::uint64_t ids) {
  std::map<std::uint32_t, std::size_t> load;
  for (const NodeId n : ring.members()) load[n.value()] = 0;
  for (std::uint64_t i = 0; i < ids; ++i)
    ++load[ring.owner_of(ObjectId(i)).value()];
  return load;
}

TEST(HashRingTest, RejectsDegenerateConfigs) {
  EXPECT_THROW(HashRing(1, 0), UsageError);
  HashRing ring(kRingSeed, 8);
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.owner_of(ObjectId(1)), UsageError);
}

TEST(HashRingTest, MembershipIsIdempotent) {
  HashRing ring(kRingSeed, 8);
  EXPECT_TRUE(ring.add_node(NodeId(3)));
  EXPECT_FALSE(ring.add_node(NodeId(3)));
  EXPECT_TRUE(ring.contains(NodeId(3)));
  EXPECT_EQ(ring.num_members(), 1u);
  EXPECT_TRUE(ring.remove_node(NodeId(3)));
  EXPECT_FALSE(ring.remove_node(NodeId(3)));
  EXPECT_TRUE(ring.empty());
}

TEST(HashRingTest, PlacementIsDeterministicInSeedAndMembership) {
  HashRing a(kRingSeed, 16);
  HashRing b(kRingSeed, 16);
  // Different insertion order, same membership.
  for (std::uint32_t n = 0; n < 8; ++n) a.add_node(NodeId(n));
  for (std::uint32_t n = 8; n-- > 0;) b.add_node(NodeId(n));
  for (std::uint64_t i = 0; i < 2000; ++i)
    ASSERT_EQ(a.owner_of(ObjectId(i)), b.owner_of(ObjectId(i))) << i;
  // A different seed places differently (tokens move).
  HashRing c(kRingSeed + 1, 16);
  for (std::uint32_t n = 0; n < 8; ++n) c.add_node(NodeId(n));
  std::size_t moved = 0;
  for (std::uint64_t i = 0; i < 2000; ++i)
    if (a.owner_of(ObjectId(i)) != c.owner_of(ObjectId(i))) ++moved;
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, BalanceBoundWithEnoughVirtualNodes) {
  HashRing ring(kRingSeed, 64);
  const std::size_t members = 8;
  for (std::uint32_t n = 0; n < members; ++n) ring.add_node(NodeId(n));
  const std::uint64_t ids = 16384;
  const auto load = load_of(ring, ids);
  const double mean = static_cast<double>(ids) / members;
  for (const auto& [node, count] : load) {
    // 64 tokens/member keeps every member within 2x of the mean (the bound
    // is loose on purpose: the test must hold for any seed drift).
    EXPECT_GT(static_cast<double>(count), mean * 0.35)
        << "node " << node << " underloaded: " << count;
    EXPECT_LT(static_cast<double>(count), mean * 2.0)
        << "node " << node << " overloaded: " << count;
  }
}

TEST(HashRingTest, RemovalOnlyRemapsTheLeaversObjects) {
  HashRing before(kRingSeed, 32);
  for (std::uint32_t n = 0; n < 6; ++n) before.add_node(NodeId(n));
  HashRing after = before;
  const NodeId leaver(2);
  ASSERT_TRUE(after.remove_node(leaver));
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const NodeId was = before.owner_of(ObjectId(i));
    const NodeId now = after.owner_of(ObjectId(i));
    if (was != leaver)
      ASSERT_EQ(was, now) << "object " << i
                          << " remapped though its owner stayed";
    else
      ASSERT_NE(now, leaver);
  }
}

TEST(HashRingTest, AdditionOnlyStealsForTheJoiner) {
  HashRing before(kRingSeed, 32);
  for (std::uint32_t n = 0; n < 5; ++n) before.add_node(NodeId(n));
  HashRing after = before;
  const NodeId joiner(7);
  ASSERT_TRUE(after.add_node(joiner));
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const NodeId was = before.owner_of(ObjectId(i));
    const NodeId now = after.owner_of(ObjectId(i));
    if (was != now)
      ASSERT_EQ(now, joiner)
          << "object " << i << " moved to a node that did not join";
  }
}

TEST(HashRingTest, SuccessorsAreDistinctAndExcludeTheOwner) {
  HashRing ring(kRingSeed, 16);
  for (std::uint32_t n = 0; n < 6; ++n) ring.add_node(NodeId(n));
  for (std::uint64_t i = 0; i < 512; ++i) {
    const ObjectId id(i);
    const NodeId owner = ring.owner_of(id);
    const auto succ = ring.successors(id, 3);
    ASSERT_EQ(succ.size(), 3u);
    std::set<std::uint32_t> seen;
    for (const NodeId s : succ) {
      EXPECT_NE(s, owner);
      EXPECT_TRUE(seen.insert(s.value()).second) << "duplicate successor";
    }
  }
  // Asking for more successors than members yields every other member.
  const auto all = ring.successors(ObjectId(1), 16);
  EXPECT_EQ(all.size(), 5u);
}

// --- cluster-level migration ------------------------------------------------

ClassId define_counter(Cluster& cluster, std::uint32_t page_size) {
  return cluster.define_class(
      ClassBuilder("Counter", page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("value",
                                  ctx.get<std::int64_t>("value") + 1);
          }));
}

ClusterConfig ring_config(std::size_t nodes) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.page_size = 256;
  cfg.gdo.replicate = true;
  cfg.gdo.ring.enabled = true;
  cfg.gdo.ring.virtual_nodes = 16;
  cfg.gdo.ring.mirror_group = 2;
  return cfg;
}

TEST(RingMigrationTest, LeaveMigratesEveryReownedEntry) {
  ClusterConfig cfg = ring_config(4);
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, cfg.page_size);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 12; ++i)
    objs.push_back(cluster.create_object(cls, NodeId(i % 4)));

  for (const ObjectId obj : objs)
    ASSERT_TRUE(cluster.run_root(obj, "increment", NodeId(0)).committed);

  // Node 2 leaves the placement ring (it stays up as a site).
  GdoService& gdo = cluster.gdo();
  ASSERT_TRUE(gdo.ring_set_member(NodeId(2), false));
  EXPECT_EQ(gdo.ring_epoch(), 1u);
  EXPECT_EQ(gdo.ring_members().size(), 3u);
  gdo.drain_migrations();
  EXPECT_EQ(gdo.pending_migrations(), 0u);

  // Every entry now resides off node 2 and the directory still serves it.
  for (const ObjectId obj : objs) {
    EXPECT_NE(gdo.resident_of(obj), NodeId(2)) << obj.value();
    ASSERT_TRUE(cluster.run_root(obj, "increment", NodeId(1)).committed);
  }
  EXPECT_EQ(gdo.num_objects(), objs.size());  // nothing lost or duplicated
  for (const ObjectId obj : objs)
    EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 2);

  // The migration traffic was charged as real messages.
  EXPECT_GT(cluster.stats().by_kind(MessageKind::kShardMigrateRequest)
                .messages, 0u);
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kShardMigrateRequest)
                .messages,
            cluster.stats().by_kind(MessageKind::kShardMigrateReply)
                .messages);
  const auto violations = validate_quiescent(cluster);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(RingMigrationTest, StaleViewIsChargedARedirect) {
  ClusterConfig cfg = ring_config(4);
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, cfg.page_size);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 16; ++i)
    objs.push_back(cluster.create_object(cls, NodeId(0)));
  GdoService& gdo = cluster.gdo();

  // Find an object owned by node 3 before it leaves: its post-leave lookup
  // from a stale-view requester must be misrouted to 3 and bounced.
  ObjectId moved{};
  bool found = false;
  for (const ObjectId obj : objs)
    if (gdo.resident_of(obj) == NodeId(3)) {
      moved = obj;
      found = true;
      break;
    }
  ASSERT_TRUE(found) << "no object placed at node 3; vary the seed";

  ASSERT_TRUE(gdo.ring_set_member(NodeId(3), false));
  gdo.drain_migrations();
  ASSERT_NE(gdo.resident_of(moved), NodeId(3));

  const auto before =
      cluster.stats().by_kind(MessageKind::kShardRedirect).messages;
  (void)gdo.lookup_page_map(moved, NodeId(1));
  const auto after =
      cluster.stats().by_kind(MessageKind::kShardRedirect).messages;
  EXPECT_EQ(after, before + 1)
      << "first post-change request from a stale node must bounce off the "
         "fenced ex-owner";

  // The requester's view is now current: no second redirect.
  (void)gdo.lookup_page_map(moved, NodeId(1));
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kShardRedirect).messages,
            after);
}

TEST(RingMigrationTest, JoinLeaveCyclesUnderLoadWithOracles) {
  ClusterConfig cfg = ring_config(4);
  cfg.gdo.ring.migration_batch = 2;
  // Three leave/join cycles over two victims, interleaved with the batch
  // (ticks low enough that the batch's message stream reaches all six).
  cfg.fault = fault_presets::rebalance({NodeId(1), NodeId(2)}, 3,
                                       /*first_tick=*/20, /*window=*/40);
  RingOwnershipOracle ring_oracle;
  SerializabilityOracle ser_oracle;
  FanoutSink fanout;
  fanout.add(&ring_oracle);
  fanout.add(&ser_oracle);
  cfg.check_sink = &fanout;
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, cfg.page_size);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 8; ++i)
    objs.push_back(cluster.create_object(cls, NodeId(i % 4)));

  const MethodId m = cluster.method_id(objs[0], "increment");
  std::vector<RootRequest> reqs;
  for (int i = 0; i < 64; ++i)
    reqs.push_back({objs[static_cast<std::size_t>(i) % objs.size()], m,
                    NodeId(static_cast<std::uint32_t>(i % 4)),
                    {},
                    nullptr});
  const auto results = cluster.execute(std::move(reqs));

  std::map<std::uint64_t, std::int64_t> expected;
  for (std::size_t i = 0; i < results.size(); ++i)
    if (results[i].committed)
      ++expected[objs[i % objs.size()].value()];
  for (const TxnResult& r : results)
    EXPECT_TRUE(r.committed);  // membership churn never kills a family

  for (const ObjectId obj : objs)
    EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"),
              expected[obj.value()])
        << "object " << obj.value();

  // The chaos actually exercised the machinery…
  EXPECT_GE(cluster.gdo().ring_epoch(), 6u);
  EXPECT_GT(ring_oracle.moves(), 0u);
  EXPECT_GT(ring_oracle.serves(), 0u);
  // …and both oracles stayed clean: no entry double-served or lost.
  const auto rv = ring_oracle.finish();
  EXPECT_FALSE(rv.has_value()) << rv->detail;
  const auto sv = ser_oracle.finish();
  EXPECT_FALSE(sv.has_value()) << sv->detail;
  const auto violations = validate_quiescent(cluster);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(RingMigrationTest, QuorumGroupSurvivesResidentCrash) {
  // Mirror group k=2: any single survivor of the group can rebuild the
  // entry after its resident dies (the quorum guarantee).
  ClusterConfig cfg = ring_config(4);
  cfg.fault.install_hooks = true;  // chain failover + lease machinery
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, cfg.page_size);
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  GdoService& gdo = cluster.gdo();

  ASSERT_TRUE(cluster.run_root(obj, "increment", NodeId(0)).committed);
  const NodeId res = gdo.resident_of(obj);

  // Pick two worker sites that are not the resident.
  std::vector<NodeId> workers;
  for (std::uint32_t n = 0; n < 4; ++n)
    if (NodeId(n) != res) workers.push_back(NodeId(n));

  cluster.transport().set_node_failed(res, true);
  gdo.on_node_crash(res);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(
        cluster.run_root(obj, "increment", workers[i % workers.size()])
            .committed)
        << "increment " << i << " failed while the resident was down";

  cluster.transport().set_node_failed(res, false);
  EXPECT_GE(gdo.rebuild_node(res), 1u);
  ASSERT_TRUE(cluster.run_root(obj, "increment", workers[0]).committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 6);
}

TEST(RingMigrationTest, MigrationRecoversEntriesOfACrashedSource) {
  // A node leaves the ring *and* crashes before its shards migrate: the
  // migrator must recover each entry from the quorum mirror copies.
  ClusterConfig cfg = ring_config(4);
  cfg.fault.install_hooks = true;
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, cfg.page_size);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 10; ++i)
    objs.push_back(cluster.create_object(cls, NodeId(0)));
  GdoService& gdo = cluster.gdo();
  for (const ObjectId obj : objs)
    ASSERT_TRUE(cluster.run_root(obj, "increment", NodeId(0)).committed);

  // Find a node that owns at least one entry, then kill it unmigrated.
  NodeId victim{};
  for (std::uint32_t n = 1; n < 4 && !victim.valid(); ++n)
    for (const ObjectId obj : objs)
      if (gdo.resident_of(obj) == NodeId(n)) {
        victim = NodeId(n);
        break;
      }
  ASSERT_TRUE(victim.valid());

  cluster.transport().set_node_failed(victim, true);
  gdo.on_node_crash(victim);  // wipes its entries — only mirrors survive
  ASSERT_TRUE(gdo.ring_set_member(victim, false));
  gdo.drain_migrations();
  EXPECT_EQ(gdo.pending_migrations(), 0u);

  for (const ObjectId obj : objs) {
    EXPECT_NE(gdo.resident_of(obj), victim);
    ASSERT_TRUE(cluster.run_root(obj, "increment", NodeId(0)).committed);
    EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 2) << obj.value();
  }
}

TEST(RingMigrationTest, RoundTripsFollowTheRingResident) {
  // Round-trip accounting asks where the entry is served, not where the
  // static map would put it: a family acquiring an object at the object's
  // ring resident pays no remote round trip, even when `mix64(id) % nodes`
  // names another node.
  ClusterConfig cfg = ring_config(4);
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, cfg.page_size);
  const ModuloPlacement static_map(cfg.nodes);
  GdoService& gdo = cluster.gdo();
  // Create objects round-robin until one sits at its ring resident (so its
  // pages are local too) while the static map names another node.
  ObjectId obj{};
  NodeId owner{};
  for (std::uint32_t i = 0; i < 64 && !owner.valid(); ++i) {
    const NodeId creator(i % 4);
    const ObjectId cand = cluster.create_object(cls, creator);
    if (gdo.resident_of(cand) == creator &&
        static_map.owner_of(cand) != creator) {
      obj = cand;
      owner = creator;
    }
  }
  ASSERT_TRUE(owner.valid()) << "no object placed away from its static home";

  const TxnResult r = cluster.run_root(obj, "increment", owner);
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.remote_round_trips, 0u);
  const auto& counters = cluster.observe().metrics().counters();
  const auto it = counters.find("net.round_trips");
  EXPECT_EQ(it == counters.end() ? 0u : it->second, 0u);
}

// --- ring-ownership oracle self-test ---------------------------------------

TEST(RingOwnershipOracleTest, FlagsDoubleServe) {
  RingOwnershipOracle oracle;
  oracle.on_shard_serve(ObjectId(7), NodeId(0), 0);
  oracle.on_ring_change(1, NodeId(2), false);
  oracle.on_shard_move(ObjectId(7), NodeId(0), NodeId(1), 1);
  // Node 0 is fenced for object 7 now; a serve there is a violation.
  oracle.on_shard_serve(ObjectId(7), NodeId(1), 1);
  EXPECT_FALSE(oracle.finish().has_value());
  oracle.on_shard_serve(ObjectId(7), NodeId(0), 1);
  const auto v = oracle.finish();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->oracle), "ring-ownership");
}

TEST(RingOwnershipOracleTest, FlagsMoveFromNonOwner) {
  RingOwnershipOracle oracle;
  oracle.on_shard_serve(ObjectId(3), NodeId(2), 0);
  oracle.on_ring_change(1, NodeId(2), false);
  oracle.on_shard_move(ObjectId(3), NodeId(1), NodeId(0), 1);
  EXPECT_TRUE(oracle.finish().has_value());
}

}  // namespace
}  // namespace lotec
