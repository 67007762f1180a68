// LOTEC-DSD (Section 4.2 / Section 6 extension): sub-page delta transfers.
// Correctness must be identical to LOTEC; the wire carries only the
// changed byte ranges when the acquirer is exactly one version behind, and
// falls back to full pages otherwise.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"
#include "sim/experiment.hpp"
#include "sim/validate.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

TEST(PageDeltaTest, StampRecordsCoalescedRanges) {
  ObjectImage img(ObjectId(1), 2, 64);
  img.materialize_all();
  std::vector<std::byte> a(8, std::byte{1});
  img.write_bytes(0, a);    // page 0: [0,8)
  img.write_bytes(4, a);    // overlaps -> coalesce to [0,12)
  img.write_bytes(20, a);   // separate range [20,28)
  img.write_bytes(60, a);   // straddles into page 1: [60,64) + [0,4)

  img.stamp_dirty(5);
  const PageDelta* d0 = img.delta_of(PageIndex(0));
  ASSERT_NE(d0, nullptr);
  EXPECT_EQ(d0->from_version, 0u);
  ASSERT_EQ(d0->ranges.size(), 3u);
  EXPECT_EQ(d0->ranges[0], (std::pair<std::uint32_t, std::uint32_t>(0, 12)));
  EXPECT_EQ(d0->ranges[1], (std::pair<std::uint32_t, std::uint32_t>(20, 8)));
  EXPECT_EQ(d0->ranges[2], (std::pair<std::uint32_t, std::uint32_t>(60, 4)));
  // 24 payload bytes + 3 range descriptors.
  EXPECT_EQ(d0->wire_bytes(), 24u + 3 * 8u);

  const PageDelta* d1 = img.delta_of(PageIndex(1));
  ASSERT_NE(d1, nullptr);
  ASSERT_EQ(d1->ranges.size(), 1u);
  EXPECT_EQ(d1->ranges[0], (std::pair<std::uint32_t, std::uint32_t>(0, 4)));
}

TEST(PageDeltaTest, ClearDirtyDropsPendingRanges) {
  ObjectImage img(ObjectId(1), 1, 64);
  img.materialize_all();
  std::vector<std::byte> a(8, std::byte{1});
  img.write_bytes(0, a);
  img.clear_dirty();
  img.write_bytes(16, a);
  img.stamp_dirty(1);
  const PageDelta* d = img.delta_of(PageIndex(0));
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->ranges.size(), 1u);
  EXPECT_EQ(d->ranges[0].first, 16u);  // aborted epoch's range is gone
}

ClusterConfig dsd_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.protocol = protocol;
  cfg.page_size = 4096;
  cfg.seed = 91;
  return cfg;
}

ClassBuilder sparse_class(std::uint32_t page_size) {
  // One narrow counter inside an otherwise untouched 4 KB page.
  return ClassBuilder("Sparse", page_size)
      .attribute("counter", 8)
      .attribute("pad", page_size)  // second page, never written
      .method("bump", {"counter"}, {"counter"}, [](MethodContext& ctx) {
        ctx.set<std::int64_t>("counter", ctx.get<std::int64_t>("counter") + 1);
      });
}

TEST(DsdRuntimeTest, DeltaTransfersShrinkTrafficDramatically) {
  const auto run = [](ProtocolKind protocol) {
    Cluster cluster(dsd_config(protocol));
    const ClassId cls = cluster.define_class(sparse_class(4096));
    const ObjectId obj = cluster.create_object(cls, NodeId(0));
    std::uint64_t deltas = 0;
    // Ping-pong between two nodes: after warmup every transfer is exactly
    // one version behind -> pure delta traffic under DSD.
    for (int i = 0; i < 20; ++i) {
      const TxnResult r = cluster.run_root(obj, "bump", NodeId(1 + i % 2));
      EXPECT_TRUE(r.committed);
      deltas += r.delta_pages;
    }
    EXPECT_EQ(cluster.peek<std::int64_t>(obj, "counter"), 20);
    return std::pair(cluster.stats().total().bytes, deltas);
  };

  const auto [lotec_bytes, lotec_deltas] = run(ProtocolKind::kLotec);
  const auto [dsd_bytes, dsd_deltas] = run(ProtocolKind::kLotecDsd);
  EXPECT_EQ(lotec_deltas, 0u);
  EXPECT_GT(dsd_deltas, 10u);
  // An 8-byte change per 4 KB page: DSD should cut bytes by several times.
  EXPECT_LT(dsd_bytes * 3, lotec_bytes);
}

TEST(DsdRuntimeTest, ShortGapsAreServedFromTheDeltaHistory) {
  Cluster cluster(dsd_config(ProtocolKind::kLotecDsd));
  const ClassId cls = cluster.define_class(sparse_class(4096));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  // Node 1 commits twice; node 2's copy is then two versions behind, which
  // the bounded delta history still covers.
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(2)).committed);  // warm 2
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(1)).committed);
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(1)).committed);
  const TxnResult r = cluster.run_root(obj, "bump", NodeId(2));
  ASSERT_TRUE(r.committed);
  EXPECT_GE(r.delta_pages, 1u);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "counter"), 4);
}

TEST(DsdRuntimeTest, FallsBackToFullPagesBeyondTheHistory) {
  Cluster cluster(dsd_config(ProtocolKind::kLotecDsd));
  const ClassId cls = cluster.define_class(sparse_class(4096));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(2)).committed);  // warm 2
  // kDeltaHistory + 1 commits elsewhere: node 2's copy falls off the chain.
  for (std::size_t i = 0; i < kDeltaHistory + 1; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(1)).committed);
  const TxnResult r = cluster.run_root(obj, "bump", NodeId(2));
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.delta_pages, 0u);  // history exhausted: full page
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "counter"),
            static_cast<std::int64_t>(kDeltaHistory) + 3);
}

TEST(DsdRuntimeTest, EquivalentFinalStateToLotec) {
  WorkloadSpec spec;
  spec.num_objects = 10;
  spec.min_pages = 2;
  spec.max_pages = 6;
  spec.num_transactions = 80;
  spec.contention_theta = 0.7;
  spec.seed = 92;
  const Workload workload(spec);

  const auto state_of = [&](ProtocolKind protocol) {
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.page_size = 256;
    cfg.protocol = protocol;
    cfg.seed = 3;
    Cluster cluster(cfg);
    const auto results = cluster.execute(workload.instantiate(cluster));
    for (const auto& r : results) EXPECT_TRUE(r.committed);
    EXPECT_TRUE(validate_quiescent(cluster).empty());
    std::vector<std::int64_t> state;
    for (std::size_t i = 0; i < workload.num_objects(); ++i) {
      const ObjectId id(i);
      const ClassDef& cls = cluster.class_def(cluster.meta_of(id).cls);
      for (std::size_t a = 0; a < cls.layout().num_attributes(); ++a)
        state.push_back(cluster.peek<std::int64_t>(
            id, cls.layout()
                    .attribute(AttrId(static_cast<std::uint32_t>(a)))
                    .name));
    }
    return state;
  };
  EXPECT_EQ(state_of(ProtocolKind::kLotec),
            state_of(ProtocolKind::kLotecDsd));
}

TEST(DsdRuntimeTest, DsdNeverExceedsLotecPayload) {
  WorkloadSpec spec;
  spec.num_objects = 12;
  spec.min_pages = 2;
  spec.max_pages = 6;
  spec.num_transactions = 100;
  spec.contention_theta = 0.8;
  spec.touched_attr_fraction = 0.3;
  spec.seed = 93;
  const Workload workload(spec);
  ExperimentOptions options;
  options.cluster.nodes = 4;
  options.cluster.page_size = 1024;
  const auto results = run_protocol_suite(
      workload, {ProtocolKind::kLotec, ProtocolKind::kLotecDsd}, options);
  EXPECT_EQ(results[0].committed, results[1].committed);
  EXPECT_LE(results[1].total.bytes, results[0].total.bytes);
  EXPECT_GT(results[1].counter("page.delta"), 0u);
}

TEST(PerClassProtocolTest, ClassesOverrideTheClusterDefault) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.protocol = ProtocolKind::kCotec;  // cluster default: the baseline
  cfg.page_size = 4096;
  cfg.seed = 94;
  Cluster cluster(cfg);

  ClassBuilder fat = sparse_class(4096);
  const ClassId cotec_cls = cluster.define_class(fat);

  ClassBuilder lean("SparseDsd", 4096);
  lean.attribute("counter", 8)
      .attribute("pad", 4096)
      .protocol(static_cast<std::uint8_t>(ProtocolKind::kLotecDsd))
      .method("bump", {"counter"}, {"counter"}, [](MethodContext& ctx) {
        ctx.set<std::int64_t>("counter",
                              ctx.get<std::int64_t>("counter") + 1);
      });
  const ClassId dsd_cls = cluster.define_class(lean);

  const ObjectId plain = cluster.create_object(cotec_cls, NodeId(0));
  const ObjectId dsd = cluster.create_object(dsd_cls, NodeId(0));
  EXPECT_EQ(cluster.meta_of(plain).protocol, ProtocolKind::kCotec);
  EXPECT_EQ(cluster.meta_of(dsd).protocol, ProtocolKind::kLotecDsd);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.run_root(plain, "bump", NodeId(1 + i % 2)).committed);
    ASSERT_TRUE(cluster.run_root(dsd, "bump", NodeId(1 + i % 2)).committed);
  }
  EXPECT_EQ(cluster.peek<std::int64_t>(plain, "counter"), 10);
  EXPECT_EQ(cluster.peek<std::int64_t>(dsd, "counter"), 10);
  // The COTEC-governed object moved whole objects every time; the DSD one
  // moved deltas: per-object traffic must differ by a wide margin.
  EXPECT_GT(cluster.stats().by_object(plain).bytes,
            4 * cluster.stats().by_object(dsd).bytes);
  EXPECT_TRUE(validate_quiescent(cluster).empty());
}

TEST(PerClassProtocolTest, OutOfRangeOverrideRejected) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.page_size = 64;
  Cluster cluster(cfg);
  ClassBuilder bad("Bad", 64);
  bad.attribute("v", 8).protocol(99).method(
      "m", {}, {"v"},
      [](MethodContext& ctx) { ctx.set<std::int64_t>("v", 1); });
  const ClassId cls = cluster.define_class(bad);
  EXPECT_THROW(cluster.create_object(cls), UsageError);
}

}  // namespace
}  // namespace lotec
