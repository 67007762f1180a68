// GDO replica failover under every consistency protocol (promotion of
// examples/failover.cpp into the regression suite): kill an object's
// directory home mid-run and check lock service continues from the mirror
// with no committed update lost.  Also covers the lock-cache interaction:
// a site that crashes while holding only a *cached* (idle) lock must be
// reclaimed by the lease machinery like any live holder.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/cluster.hpp"
#include "sim/validate.hpp"

namespace lotec {
namespace {

class FailoverTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(FailoverTest, LockServiceSurvivesDirectoryHomeFailure) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.protocol = GetParam();
  cfg.gdo.replicate = true;  // mirror every directory entry
  Cluster cluster(cfg);

  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));

  const NodeId home = cluster.gdo().home_of(obj);

  // Work from the two nodes that are neither home nor mirror, so the
  // object's newest pages never live on the node we kill.
  const NodeId a((home.value() + 2) % 4);
  const NodeId b((home.value() + 3) % 4);

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "increment", i % 2 ? a : b).committed);

  cluster.transport().set_node_failed(home, true);

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "increment", i % 2 ? a : b).committed)
        << "increment " << i << " failed during failover under "
        << to_string(GetParam());

  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 10);
  EXPECT_GT(cluster.stats().by_kind(MessageKind::kGdoReplicaSync).messages,
            0u);
}

TEST_P(FailoverTest, CachedHolderCrashIsReclaimedByLease) {
  // Geometry probe: the directory home is a pure hash of the object id, so
  // a fault-free twin cluster reveals it before we aim the crash.
  ClusterConfig probe_cfg;
  probe_cfg.nodes = 4;
  probe_cfg.page_size = 256;
  Cluster probe(probe_cfg);
  const ClassId probe_cls = probe.define_class(
      ClassBuilder("Counter", probe_cfg.page_size)
          .attribute("value", 8)
          .method("noop", {}, {}, [](MethodContext&) {}));
  const NodeId home = probe.gdo().home_of(
      probe.create_object(probe_cls, NodeId(0)));
  // Both worker sites avoid the directory home AND the creator (node 0):
  // the creator keeps the only pre-crash page copy, and it must survive for
  // the queued family to fetch from after the reclaim.
  std::vector<NodeId> workers;
  for (std::uint32_t n = 0; n < 4; ++n)
    if (NodeId(n) != home && n != 0) workers.push_back(NodeId(n));
  const NodeId a = workers[0];  // will cache the lock, then die
  const NodeId b = workers[1];  // queued behind the dead marker

  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = GetParam();
  cfg.gdo.replicate = true;
  cfg.lock_cache = true;
  cfg.max_active_families = 1;
  // Crash `a` exactly when the second global acquire (site b's) is sent:
  // at that moment `a` is idle and holds the lock only as a cached marker.
  FaultEvent ev;
  ev.action = FaultAction::kCrashNode;
  ev.on_kind = MessageKind::kLockAcquireRequest;
  ev.nth = 2;
  ev.node = a;
  cfg.fault.events = {ev};
  Cluster cluster(cfg);

  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  ASSERT_EQ(cluster.gdo().home_of(obj), home);

  const MethodId m = cluster.method_id(obj, "increment");
  std::vector<RootRequest> reqs;
  reqs.push_back({obj, m, a, {}, nullptr});
  reqs.push_back({obj, m, b, {}, nullptr});
  const auto results = cluster.execute(std::move(reqs));

  // Family 1 committed before the crash; its site then died holding the
  // lock only as a cached marker with an unflushed deferred report.  The
  // lease sweep reclaims the marker mid-run, so family 2 gets the lock and
  // commits after fault retries instead of hanging forever.
  ASSERT_TRUE(results[0].committed);
  ASSERT_TRUE(results[1].committed)
      << "queued acquire never freed under " << to_string(GetParam());
  // Family 2 was blocked by the dead marker until the lease ran out: its
  // commit took restarts, and the reclaim counter shows the sweep firing.
  EXPECT_GT(results[1].attempts, 1);
  EXPECT_GE(cluster.gdo().locks_reclaimed(), 1u);

  // Writeback semantics: the crash destroyed family 1's committed update
  // together with its unflushed report, so only family 2's increment
  // survives — and the directory stays consistent about it.
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 1);
  EXPECT_TRUE(validate_quiescent(cluster).empty());
  EXPECT_EQ(cluster.fault_engine()->stats().crashes, 1u);
  EXPECT_GE(cluster.fault_engine()->stats().restarts, 1u);
}

/// `ring`: run under the elastic ring (with a single-member mirror group)
/// instead of the static map.
void ExpectRestartedMirrorRefreshesItsCopies(bool ring) {
  // Double-failover regression: home A dies, canonical mirror B serves and
  // the chain copy moves to C; then B dies too and C serves.  When B
  // restarts while A is STILL down, rebuild_node's resident-driven refresh
  // (step 2) cannot consult A — yet B is the first chain candidate, so the
  // very next request routes to it.  B must adopt the newest surviving
  // chain copy before serving again; without that step every request
  // bounces as a transient NodeUnreachable until A returns.  Under the
  // ring, A is the ring owner and B its first ring successor.
  //
  // The failure window drives the directory directly: a Cluster batch
  // restarts every down node when it ends, which would bring A back before
  // B's restart.
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.gdo.replicate = true;
  cfg.fault.install_hooks = true;  // chain-walk failover + lease machinery
  if (ring) {
    cfg.gdo.ring.enabled = true;
    cfg.gdo.ring.mirror_group = 1;
  }
  Cluster cluster(cfg);

  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  GdoService& gdo = cluster.gdo();
  const NodeId home = gdo.home_of(obj);
  const NodeId mirror = gdo.mirror_of(obj);
  ASSERT_NE(home, mirror);
  std::vector<NodeId> workers;
  for (std::uint32_t n = 0; n < 4; ++n)
    if (NodeId(n) != home && NodeId(n) != mirror) workers.push_back(NodeId(n));

  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "increment", workers[i % 2]).committed);
  const Lsn base = gdo.snapshot(obj).version_counter;

  // One committed write through the directory: acquire, then a release
  // that stamps page 0 with a fresh version.
  std::uint64_t family = 1000;
  const auto update = [&](NodeId site) {
    const TxnId txn{FamilyId(family++), 0};
    ASSERT_EQ(gdo.acquire(obj, txn, site, LockMode::kWrite).status,
              AcquireStatus::kGranted);
    ReleaseInfo info;
    info.dirty = PageSet(gdo.snapshot(obj).num_pages);
    info.dirty.insert(PageIndex(0));
    (void)gdo.release_family(obj, txn.family, site, &info);
  };

  // First failover: B serves from its mirror copy and pushes each mutation
  // one hop further down the chain.
  cluster.transport().set_node_failed(home, true);
  for (int i = 0; i < 2; ++i) update(workers[i % 2]);

  // Second failover: B crashes (losing its directory state); the next chain
  // survivor picks up from the copy replicate_failover parked there.
  cluster.transport().set_node_failed(mirror, true);
  gdo.on_node_crash(mirror);
  for (int i = 0; i < 2; ++i) update(workers[i % 2]);

  // B restarts while A is still down.  Its rebuild must pull the newest
  // chain copy for the objects it mirrors — routing sends the next request
  // straight to B.
  cluster.transport().set_node_failed(mirror, false);
  const auto rebuilds_before =
      cluster.stats().by_kind(MessageKind::kGdoRebuildRequest).messages;
  (void)gdo.rebuild_node(mirror);
  EXPECT_GT(cluster.stats().by_kind(MessageKind::kGdoRebuildRequest).messages,
            rebuilds_before)
      << "restart pulled no copies though it mirrors an orphaned object";
  for (int i = 0; i < 2; ++i)
    ASSERT_NO_THROW(update(workers[i % 2]))
        << "update " << i
        << " failed after the mirror restarted with the home still down";

  // Finally the home returns and recovers the entry; no committed update
  // may have been lost across the double failover.
  cluster.transport().set_node_failed(home, false);
  EXPECT_EQ(gdo.rebuild_node(home), 1u);
  EXPECT_EQ(gdo.snapshot(obj).version_counter, base + 6);
}

TEST(FailoverRebuildTest, RestartedMirrorRefreshesItsCopiesBeforeServing) {
  ExpectRestartedMirrorRefreshesItsCopies(/*ring=*/false);
}

TEST(FailoverRebuildTest,
     RestartedRingSuccessorRefreshesItsCopiesBeforeServing) {
  ExpectRestartedMirrorRefreshesItsCopies(/*ring=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, FailoverTest,
                         ::testing::Values(ProtocolKind::kCotec,
                                           ProtocolKind::kOtec,
                                           ProtocolKind::kLotec,
                                           ProtocolKind::kRc),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace lotec
