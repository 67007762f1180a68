// ConsistencyProtocol policies: transfer plans and release reports for
// COTEC / OTEC / LOTEC / RC over synthetic images and page maps.
#include <gtest/gtest.h>

#include "protocol/protocol.hpp"

namespace lotec {
namespace {

constexpr std::uint32_t kPageSize = 64;

/// Image at `self` holding `resident` pages at the given versions.
ObjectImage make_image(const std::vector<std::pair<std::uint32_t, Lsn>>&
                           resident_versions) {
  ObjectImage img(ObjectId(1), 4, kPageSize);
  for (const auto& [p, v] : resident_versions)
    img.install_page(PageIndex(p),
                     Page{.data = std::vector<std::byte>(kPageSize), .version = v, .history = {}});
  return img;
}

PageSet pages(std::initializer_list<std::uint32_t> idx) {
  PageSet s(4);
  for (const auto i : idx) s.insert(PageIndex(i));
  return s;
}

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : map_(4, NodeId(0)) {
    // Pages 0,1 updated at node 2 (v3); page 2 updated at node 3 (v1);
    // page 3 still with the creator (node 0, v0).
    PageSet d01(4);
    d01.insert(PageIndex(0));
    d01.insert(PageIndex(1));
    map_.record_update(d01, NodeId(2), 3);
    PageSet d2(4);
    d2.insert(PageIndex(2));
    map_.record_update(d2, NodeId(3), 1);
  }

  const NodeId self_{NodeId(1)};
  PageMap map_;
};

TEST_F(ProtocolTest, StaleOrMissingComputation) {
  // Self has page 0 current (v3), page 1 stale (v2), page 2 missing,
  // page 3 missing.
  const ObjectImage img = make_image({{0, 3}, {1, 2}});
  EXPECT_EQ(stale_or_missing_pages(self_, img, map_), pages({1, 2, 3}));
}

TEST_F(ProtocolTest, CotecTransfersEverythingNotOwnedHere) {
  const auto p = make_protocol(ProtocolKind::kCotec);
  const ObjectImage img = make_image({{0, 3}, {1, 3}, {2, 1}, {3, 0}});
  // Fully current locally — COTEC still moves all 4 pages because the map
  // says their authoritative copies live elsewhere (version-blind baseline).
  EXPECT_EQ(p->pages_to_transfer(self_, img, map_, pages({0})),
            pages({0, 1, 2, 3}));
  EXPECT_FALSE(p->allows_demand_fetch());
  EXPECT_FALSE(p->eager_push_on_release());
}

TEST_F(ProtocolTest, CotecSkipsPagesOwnedBySelf) {
  PageMap map(4, self_);  // everything already newest here
  const auto p = make_protocol(ProtocolKind::kCotec);
  const ObjectImage img = make_image({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  EXPECT_TRUE(p->pages_to_transfer(self_, img, map, pages({})).empty());
}

TEST_F(ProtocolTest, OtecTransfersOnlyStaleOrMissing) {
  const auto p = make_protocol(ProtocolKind::kOtec);
  const ObjectImage img = make_image({{0, 3}, {1, 2}});
  EXPECT_EQ(p->pages_to_transfer(self_, img, map_, pages({0})),
            pages({1, 2, 3}));
}

TEST_F(ProtocolTest, LotecIntersectsWithPrediction) {
  const auto p = make_protocol(ProtocolKind::kLotec);
  const ObjectImage img = make_image({{0, 3}, {1, 2}});
  // Stale/missing = {1,2,3}; predicted = {0,1,3} -> fetch {1,3} only.
  EXPECT_EQ(p->pages_to_transfer(self_, img, map_, pages({0, 1, 3})),
            pages({1, 3}));
  EXPECT_TRUE(p->allows_demand_fetch());
}

TEST_F(ProtocolTest, LotecEmptyPredictionFetchesNothing) {
  const auto p = make_protocol(ProtocolKind::kLotec);
  const ObjectImage img = make_image({});
  EXPECT_TRUE(p->pages_to_transfer(self_, img, map_, pages({})).empty());
}

TEST_F(ProtocolTest, RcFetchesLikeOtecButPushesOnRelease) {
  const auto p = make_protocol(ProtocolKind::kRc);
  const ObjectImage img = make_image({{0, 3}});
  EXPECT_EQ(p->pages_to_transfer(self_, img, map_, pages({})),
            pages({1, 2, 3}));
  EXPECT_TRUE(p->eager_push_on_release());
  EXPECT_FALSE(p->allows_demand_fetch());
}

TEST_F(ProtocolTest, ReleaseReports) {
  ObjectImage img = make_image({{0, 3}, {1, 3}, {2, 1}});
  std::vector<std::byte> one{std::byte{1}};
  img.write_bytes(0, one);  // dirty page 0

  // COTEC/OTEC/RC report the clean resident remainder; LOTEC reports none.
  EXPECT_EQ(make_protocol(ProtocolKind::kCotec)->pages_to_report(img),
            pages({1, 2}));
  EXPECT_EQ(make_protocol(ProtocolKind::kOtec)->pages_to_report(img),
            pages({1, 2}));
  EXPECT_EQ(make_protocol(ProtocolKind::kRc)->pages_to_report(img),
            pages({1, 2}));
  EXPECT_TRUE(
      make_protocol(ProtocolKind::kLotec)->pages_to_report(img).empty());
}

TEST(ProtocolFactoryTest, NamesAndKinds) {
  for (std::size_t k = 0; k < kNumProtocols; ++k) {
    const auto kind = static_cast<ProtocolKind>(k);
    const auto p = make_protocol(kind);
    EXPECT_EQ(p->kind(), kind);
    EXPECT_EQ(p->name(), to_string(kind));
  }
}

TEST_F(ProtocolTest, LotecDsdSharesLotecPlanPlusDeltas) {
  const auto p = make_protocol(ProtocolKind::kLotecDsd);
  const ObjectImage img = make_image({{0, 3}, {1, 2}});
  EXPECT_EQ(p->pages_to_transfer(self_, img, map_, pages({0, 1, 3})),
            pages({1, 3}));
  EXPECT_TRUE(p->allows_demand_fetch());
  EXPECT_TRUE(p->delta_transfers());
  EXPECT_FALSE(make_protocol(ProtocolKind::kLotec)->delta_transfers());
  EXPECT_TRUE(p->pages_to_report(img).empty());
}

TEST(PageMapTest, RecordCurrentGuardsAgainstStaleReports) {
  PageMap map(2, NodeId(0));
  PageSet d(2);
  d.insert(PageIndex(0));
  map.record_update(d, NodeId(1), 5);
  map.record_current(PageIndex(0), NodeId(2), 4);  // stale: ignored
  EXPECT_EQ(map.at(PageIndex(0)), (PageLocation{NodeId(1), 5}));
  map.record_current(PageIndex(0), NodeId(2), 5);  // equal: owner moves
  EXPECT_EQ(map.at(PageIndex(0)), (PageLocation{NodeId(2), 5}));
}

TEST(PageMapTest, WireBytesScaleWithPages) {
  EXPECT_EQ(PageMap(3, NodeId(0)).wire_bytes(),
            3 * wire::kPageMapEntryBytes);
}

TEST(ProtocolNameTest, ParseRoundTripsEveryKind) {
  for (std::size_t i = 0; i < kNumProtocols; ++i) {
    const auto kind = static_cast<ProtocolKind>(i);
    EXPECT_EQ(parse_protocol(to_string(kind)), kind);
  }
  // The command-line spellings are lowercase.
  EXPECT_EQ(parse_protocol("lotec-dsd"), ProtocolKind::kLotecDsd);
  EXPECT_EQ(parse_protocol("cotec"), ProtocolKind::kCotec);
}

TEST(ProtocolNameTest, ParseRejectsUnknownNames) {
  EXPECT_THROW((void)parse_protocol("lotecx"), UsageError);
  EXPECT_THROW((void)parse_protocol(""), UsageError);
  EXPECT_THROW((void)parse_protocol("lotec-"), UsageError);
}

}  // namespace
}  // namespace lotec
