// Multi-version snapshot reads (mv_read, PROTOCOL.md §14): read-only
// families resolve every page against a commit-tick snapshot with zero lock
// traffic.  Covers the kReadOnly submission contract, lock-free reads that
// observe the latest committed state, a reader overlapping a committing
// writer resolving to the pre-commit version, version-ring GC fencing,
// snapshot pins blocking eviction, checker exploration of mixed schedules,
// and knob-off wire bit-identity of the declared kind.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "check/events.hpp"
#include "check/scenarios.hpp"
#include "check/strategy.hpp"
#include "common/rng.hpp"
#include "page/object_image.hpp"
#include "page/page_store.hpp"
#include "runtime/cluster.hpp"
#include "runtime/snapshot_registry.hpp"
#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"
#include "sim/validate.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

ClassId define_counter(Cluster& cluster, std::uint32_t page_size,
                       std::vector<std::int64_t>* observed = nullptr) {
  return cluster.define_class(
      ClassBuilder("MvCounter", page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  })
          .method("read", {"value"}, {},
                  [observed](MethodContext& ctx) {
                    const auto v = ctx.get<std::int64_t>("value");
                    if (observed != nullptr) observed->push_back(v);
                  })
          .method("scan", {}, {},
                  [](MethodContext& ctx) {
                    (void)ctx.get<std::int64_t>("value");
                  },
                  /*may_access_undeclared=*/true));
}

std::uint64_t lock_traffic(Cluster& cluster) {
  std::uint64_t n = 0;
  for (const MessageKind k :
       {MessageKind::kLockAcquireRequest, MessageKind::kLockAcquireGrant,
        MessageKind::kLockReleaseRequest, MessageKind::kLockCallback,
        MessageKind::kCallbackReply})
    n += cluster.stats().by_kind(k).messages;
  return n;
}

// --- kReadOnly submission contract ---------------------------------------

TEST(MvReadTest, SubmissionRejectsWritingOrUnboundedReadOnlyRoots) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.page_size = 256;
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, 256);
  const ObjectId obj = cluster.create_object(cls, NodeId(0));

  // A root that declares writes is not admissible as kReadOnly...
  RootRequest writer;
  writer.object = obj;
  writer.method = cluster.method_id(obj, "increment");
  writer.kind = FamilyKind::kReadOnly;
  EXPECT_THROW((void)cluster.execute({writer}), UsageError);

  // ...nor is one whose access analysis is unbounded, even though its
  // declared write set is empty.  The validation runs with mv_read off too:
  // the declaration is part of the submission API, not of the knob.
  RootRequest undeclared;
  undeclared.object = obj;
  undeclared.method = cluster.method_id(obj, "scan");
  undeclared.kind = FamilyKind::kReadOnly;
  EXPECT_THROW((void)cluster.execute({undeclared}), UsageError);

  // A genuinely read-only root is accepted (and, without mv_read, simply
  // takes the ordinary lock path).
  RootRequest reader;
  reader.object = obj;
  reader.method = cluster.method_id(obj, "read");
  reader.kind = FamilyKind::kReadOnly;
  const auto results = cluster.execute({reader});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].committed);
}

// --- the lock-free read path ---------------------------------------------

TEST(MvReadTest, SnapshotReadersSendNoLockMessagesAndSeeCommittedState) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.mv_read = true;
  std::vector<std::int64_t> observed;
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, 256, &observed);
  const ObjectId obj = cluster.create_object(cls, NodeId(0));

  // Establish committed state: three writers, ordinary lock path.
  const MethodId inc = cluster.method_id(obj, "increment");
  std::vector<RootRequest> writers;
  for (int i = 0; i < 3; ++i) {
    RootRequest r;
    r.object = obj;
    r.method = inc;
    r.node = NodeId(static_cast<std::uint32_t>(i) % 4);
    writers.push_back(r);
  }
  for (const TxnResult& r : cluster.execute(std::move(writers)))
    ASSERT_TRUE(r.committed);
  const std::uint64_t lock_before = lock_traffic(cluster);

  // Read-only families at every site, including ones that never held the
  // object: all resolve through the snapshot path, zero lock messages.
  const MethodId read = cluster.method_id(obj, "read");
  std::vector<RootRequest> readers;
  for (std::uint32_t n = 0; n < 4; ++n) {
    RootRequest r;
    r.object = obj;
    r.method = read;
    r.node = NodeId(n);
    r.kind = FamilyKind::kReadOnly;
    readers.push_back(r);
  }
  for (const TxnResult& r : cluster.execute(std::move(readers)))
    ASSERT_TRUE(r.committed);

  EXPECT_EQ(lock_traffic(cluster), lock_before);
  ASSERT_EQ(observed.size(), 4u);
  for (const std::int64_t v : observed) EXPECT_EQ(v, 3);
  EXPECT_TRUE(validate_quiescent(cluster).empty());
}

// --- reader overlapping a committing writer ------------------------------

/// Records the publication order (directory stamps) and every snapshot
/// read, so a test can witness a reader resolving to a version that a
/// concurrent writer had already superseded.
class SnapshotReadRecorder : public CheckSink {
 public:
  struct Overlap {
    Lsn read_version = 0;
    Lsn published_version = 0;
  };

  void on_directory_stamp(ObjectId object, PageIndex page, Lsn version,
                          NodeId /*site*/, std::uint64_t /*tick*/) override {
    Lsn& latest = latest_[{object.value(), page.value()}];
    latest = std::max(latest, version);
  }

  void on_snapshot_read(FamilyId /*family*/, std::uint32_t /*serial*/,
                        ObjectId object, PageIndex page, Lsn version,
                        std::uint64_t /*stamp*/) override {
    ++snapshot_reads_;
    const auto it = latest_.find({object.value(), page.value()});
    const Lsn latest = it == latest_.end() ? 0 : it->second;
    // The interesting witness: a newer version was already published when
    // the stamped reader resolved to an older (pre-commit-of-that-writer)
    // one.  The serializability oracle separately checks the version is the
    // newest publication at or below the stamp.
    if (latest > version && !overlap_)
      overlap_ = Overlap{.read_version = version, .published_version = latest};
  }

  [[nodiscard]] std::uint64_t snapshot_reads() const { return snapshot_reads_; }
  [[nodiscard]] const std::optional<Overlap>& overlap() const {
    return overlap_;
  }

 private:
  std::map<std::pair<std::uint64_t, std::uint32_t>, Lsn> latest_;
  std::uint64_t snapshot_reads_ = 0;
  std::optional<Overlap> overlap_;
};

TEST(MvReadTest, ReaderOverlappingCommittingWriterSeesPreCommitVersion) {
  // Random-walk the mixed checking scenario until some schedule interleaves
  // a snapshot reader with a writer that commits between the reader's stamp
  // and its read: the reader must resolve to the still-visible pre-commit
  // version.  A handful of seeds over an 8-family workload finds one fast;
  // the loop bound only guards against a pathological regression.
  const check::CheckScenario scenario = check::check_mixed();
  const Workload workload(scenario.workload);

  bool witnessed = false;
  for (std::uint64_t seed = 1; seed <= 64 && !witnessed; ++seed) {
    SnapshotReadRecorder recorder;
    ClusterConfig cfg;
    cfg.nodes = scenario.nodes;
    cfg.page_size = 256;
    cfg.mv_read = true;
    cfg.check_sink = &recorder;
    Rng rng(seed);
    cfg.schedule_picker = [&rng](const std::vector<std::size_t>& runnable,
                                 std::size_t spawn) -> std::size_t {
      const std::size_t k =
          runnable.size() + (spawn != check::Strategy::kNoSpawn ? 1 : 0);
      return static_cast<std::size_t>(rng.below(k));
    };
    Cluster cluster(cfg);
    std::vector<RootRequest> requests =
        workload.instantiate(cluster, scenario.read_only_fraction);
    const auto results = cluster.execute(std::move(requests));

    std::size_t committed = 0;
    for (const TxnResult& r : results) committed += r.committed ? 1 : 0;
    EXPECT_GT(committed, 0u) << "seed " << seed;
    if (recorder.overlap()) {
      witnessed = true;
      EXPECT_LT(recorder.overlap()->read_version,
                recorder.overlap()->published_version);
      EXPECT_GT(recorder.snapshot_reads(), 0u);
    }
  }
  EXPECT_TRUE(witnessed)
      << "no schedule interleaved a snapshot reader with a committing writer";
}

// --- version-ring retention and GC fencing -------------------------------

TEST(MvReadTest, RingGcNeverReclaimsAVersionUnderTheFence) {
  std::atomic<std::uint64_t> fence{~std::uint64_t{0}};  // no live snapshots
  ObjectImage img(ObjectId(7), /*num_pages=*/1, /*page_size=*/64);
  img.materialize_all();
  img.enable_retention(/*depth=*/2, &fence);

  const auto commit = [&img](Lsn version, std::uint64_t tick) {
    const std::byte b{static_cast<unsigned char>(version)};
    img.write_bytes(0, {&b, 1});
    (void)img.stamp_dirty(version, tick);
  };

  // Three commits with no live snapshot: the ring honours its bound.
  for (Lsn v = 1; v <= 3; ++v) commit(v, v);
  EXPECT_LE(img.retained(PageIndex(0)).size(), 2u);

  // A reader registers at stamp 3 (fence drops); versions keep advancing
  // far past the ring depth, yet the newest version with tick <= 3 must
  // stay resolvable for as long as the fence holds.
  fence.store(3);
  for (Lsn v = 4; v <= 12; ++v) commit(v, v);
  const auto pinned = img.snapshot_page(PageIndex(0), /*stamp=*/3);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(pinned->version, 3u);
  EXPECT_EQ(pinned->tick, 3u);
  EXPECT_EQ(static_cast<unsigned char>(pinned->data[0]), 3u);

  // The reader leaves; with the fence lifted the next commits trim the
  // ring back to its bound and the old version becomes unresolvable —
  // which in the runtime surfaces as a snapshot retry, never a wrong read.
  fence.store(~std::uint64_t{0});
  for (Lsn v = 13; v <= 16; ++v) commit(v, v);
  EXPECT_LE(img.retained(PageIndex(0)).size(), 2u);
  EXPECT_FALSE(img.snapshot_page(PageIndex(0), /*stamp=*/3).has_value());
}

TEST(MvReadTest, AdoptedVersionsResolveAndDeduplicate) {
  std::atomic<std::uint64_t> fence{1};
  ObjectImage img(ObjectId(9), 1, 64);
  img.enable_retention(4, &fence);

  // A remote snapshot fetch adopts content without touching the live page:
  // the page stays non-resident for the coherence layer, yet resolves for
  // the stamp.
  std::vector<std::byte> data(64, std::byte{0xAB});
  img.adopt_version(PageIndex(0), data, /*version=*/5, /*tick=*/1);
  img.adopt_version(PageIndex(0), data, /*version=*/5, /*tick=*/1);  // no-op
  EXPECT_FALSE(img.has_page(PageIndex(0)));
  EXPECT_EQ(img.retained(PageIndex(0)).size(), 1u);
  const auto v = img.snapshot_page(PageIndex(0), /*stamp=*/1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 5u);
}

TEST(MvReadTest, EvictionRefusedWhileSnapshotPinned) {
  PageStore store;
  std::atomic<std::uint64_t> fence{~std::uint64_t{0}};
  store.configure_retention(2, &fence);
  (void)store.create(ObjectId(1), 1, 64, /*materialize=*/true);

  store.pin_snapshot(ObjectId(1));
  store.pin_snapshot(ObjectId(1));  // two concurrent readers
  EXPECT_FALSE(store.evict(ObjectId(1)));
  store.unpin_snapshot(ObjectId(1));
  EXPECT_FALSE(store.evict(ObjectId(1)));  // one reader still live
  EXPECT_TRUE(store.contains(ObjectId(1)));
  store.unpin_snapshot(ObjectId(1));
  EXPECT_TRUE(store.evict(ObjectId(1)));
  EXPECT_FALSE(store.contains(ObjectId(1)));
  EXPECT_THROW(store.unpin_snapshot(ObjectId(1)), UsageError);
}

TEST(MvReadTest, SnapshotRegistryTracksTheOldestLiveStamp) {
  SnapshotRegistry reg;
  EXPECT_EQ(reg.oldest(), ~std::uint64_t{0});
  reg.register_stamp(5);
  reg.register_stamp(3);
  reg.register_stamp(3);
  EXPECT_EQ(reg.oldest(), 3u);
  reg.release_stamp(3);
  EXPECT_EQ(reg.oldest(), 3u);  // the second reader at 3 is still live
  reg.release_stamp(3);
  EXPECT_EQ(reg.oldest(), 5u);
  reg.release_stamp(5);
  EXPECT_EQ(reg.oldest(), ~std::uint64_t{0});
  EXPECT_THROW(reg.release_stamp(5), UsageError);
}

// --- checker exploration over mixed reader/writer schedules --------------

TEST(MvReadTest, MixedExplorationFindsNoViolations) {
  check::CheckOptions opts;
  opts.scenario = check::check_mixed();
  opts.mode = check::ExploreMode::kRandom;
  opts.max_schedules = 150;
  opts.cluster.seed = 2026;
  const check::CheckReport report = check::ScheduleChecker(opts).run();
  EXPECT_EQ(report.schedules_run, 150u);
  EXPECT_EQ(report.schedules_with_errors, 0u);
  EXPECT_FALSE(report.violation.has_value()) << report.summary();
}

// --- knob-off bit-identity -----------------------------------------------

TEST(MvReadTest, DeclaredKindAloneIsInertOnTheWire) {
  // With mv_read off, a kReadOnly family takes the ordinary lock path; the
  // declared kind must not perturb a single message.  Run the same mixed
  // workload twice — once as submitted, once with every kind demoted to
  // kReadWrite after instantiation — and compare full wire traces.
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 60;
  const Workload workload(spec);

  ExperimentOptions base;
  base.cluster.nodes = 8;
  base.record_trace = true;
  base.read_only_fraction = 0.5;
  ExperimentOptions stripped = base;
  stripped.strip_family_kinds = true;

  const ScenarioResult a = run_scenario(workload, ProtocolKind::kLotec, base);
  const ScenarioResult b =
      run_scenario(workload, ProtocolKind::kLotec, stripped);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.total.messages, b.total.messages);
  EXPECT_EQ(a.total.bytes, b.total.bytes);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.counter("snapshot.reads"), 0u);
  EXPECT_EQ(b.counter("snapshot.reads"), 0u);
}

TEST(MvReadTest, SnapshotPathShedsTrafficOnAReadHeavyMix) {
  // End-to-end through the experiment harness: same workload and read-only
  // population, mv_read off vs on.  On a hot-site read-heavy mix (the
  // ablation_mvread regime) the snapshot path must commit the same families
  // while sending strictly less traffic, with every lock round of the
  // read-only families gone.
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 60;
  const Workload workload(spec);

  ExperimentOptions options;
  options.cluster.nodes = 8;
  options.cluster.max_active_families = 1;
  options.site_locality = 0.9;
  options.read_only_fraction = 0.9;
  const ScenarioResult off =
      run_scenario(workload, ProtocolKind::kLotec, options);
  options.cluster.mv_read = true;
  const ScenarioResult on =
      run_scenario(workload, ProtocolKind::kLotec, options);

  EXPECT_EQ(on.committed + on.aborted, off.committed + off.aborted);
  EXPECT_GT(on.counter("snapshot.reads"), 0u);
  EXPECT_LT(on.counter("net.lock_messages"), off.counter("net.lock_messages"));
  EXPECT_LT(on.total.messages, off.total.messages);
}

}  // namespace
}  // namespace lotec
