// Workload definition tests: schema shapes, mixes, flow-graph structure.
#include <gtest/gtest.h>

#include "workload/micro.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace atrapos::workload {
namespace {

TEST(MicroTest, ReadOneShape) {
  auto spec = ReadOneSpec(800000);
  EXPECT_EQ(spec.tables.size(), 1u);
  EXPECT_EQ(spec.tables[0].num_rows, 800000u);
  ASSERT_EQ(spec.classes.size(), 1u);
  EXPECT_EQ(spec.classes[0].actions.size(), 1u);
  EXPECT_TRUE(spec.classes[0].sync_points.empty());
}

TEST(MicroTest, MultisiteWeights) {
  auto spec = MultisiteUpdateSpec(20.0);
  ASSERT_EQ(spec.classes.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.classes[0].weight, 80.0);
  EXPECT_DOUBLE_EQ(spec.classes[1].weight, 20.0);
  // Multi-site: 1 aligned local row + 9 unaligned rows.
  const auto& multi = spec.classes[1];
  EXPECT_TRUE(multi.actions[0].aligned);
  EXPECT_FALSE(multi.actions[1].aligned);
  EXPECT_DOUBLE_EQ(multi.actions[1].rows, 9.0);
}

TEST(TatpTest, SpecShape) {
  auto spec = TatpSpec(800000);
  EXPECT_EQ(spec.tables.size(), 4u);
  EXPECT_EQ(spec.classes.size(), 7u);
  double w = 0;
  for (const auto& c : spec.classes) w += c.weight;
  EXPECT_DOUBLE_EQ(w, 100.0);
  // GetSubData is single-table read.
  EXPECT_EQ(spec.classes[kGetSubData].actions.size(), 1u);
  EXPECT_EQ(spec.classes[kGetSubData].actions[0].table, kSubscriber);
  // GetNewDest reads SF + CF with one sync point.
  EXPECT_EQ(spec.classes[kGetNewDest].actions.size(), 2u);
  EXPECT_EQ(spec.classes[kGetNewDest].sync_points.size(), 1u);
}

TEST(TatpTest, SingleTxnSpecIsolatesClass) {
  auto spec = TatpSingleTxnSpec(kUpdSubData);
  for (size_t i = 0; i < spec.classes.size(); ++i) {
    EXPECT_DOUBLE_EQ(spec.classes[i].weight,
                     i == static_cast<size_t>(kUpdSubData) ? 1.0 : 0.0);
  }
}

TEST(TatpTest, BuildTablesPopulates) {
  auto tables = BuildTatpTables(1000, {0, 500});
  ASSERT_EQ(tables.size(), 4u);
  EXPECT_EQ(tables[kSubscriber]->num_rows(), 1000u);
  EXPECT_GT(tables[kAccessInfo]->num_rows(), 1000u);   // 1-4 per sub
  EXPECT_GT(tables[kSpecialFacility]->num_rows(), 1000u);
  // Subscriber rows readable with correct key.
  storage::Tuple t;
  ASSERT_TRUE(tables[kSubscriber]->Read(123, &t).ok());
  EXPECT_EQ(t.GetInt(0), 123);
  // Partitioned as requested.
  EXPECT_EQ(tables[kSubscriber]->index().num_partitions(), 2u);
}

// Each table's boundary p is the encoded key of subscriber boundary p, so
// all of a subscriber's rows share its partition; partition p is on core p.
TEST(TatpTest, SchemeBoundariesFollowTheKeyEncoders) {
  constexpr uint64_t kSubs = 1001;  // not a multiple of the partition count
  constexpr int kParts = 3;
  core::Scheme scheme = TatpScheme(kSubs, kParts);
  ASSERT_EQ(scheme.tables.size(), 4u);
  for (const core::TableScheme& ts : scheme.tables) {
    ASSERT_EQ(ts.boundaries.size(), static_cast<size_t>(kParts));
    ASSERT_EQ(ts.placement.size(), static_cast<size_t>(kParts));
  }
  for (int p = 0; p < kParts; ++p) {
    const size_t i = static_cast<size_t>(p);
    const uint64_t s = kSubs * i / kParts;
    EXPECT_EQ(scheme.tables[kSubscriber].boundaries[i], s);
    EXPECT_EQ(scheme.tables[kAccessInfo].boundaries[i], TatpEncodeAiKey(s, 0));
    EXPECT_EQ(scheme.tables[kSpecialFacility].boundaries[i],
              TatpEncodeSfKey(s, 0));
    EXPECT_EQ(scheme.tables[kCallForwarding].boundaries[i],
              TatpEncodeCfKey(s, 0, 0));
    for (const core::TableScheme& ts : scheme.tables)
      EXPECT_EQ(ts.placement[i], p);
  }
}

TEST(TpccTest, SpecShape) {
  auto spec = TpccSpec(80);
  EXPECT_EQ(spec.tables.size(), 9u);
  EXPECT_EQ(spec.classes.size(), 5u);
  EXPECT_EQ(spec.tables[kWarehouse].num_rows, 80u);
  EXPECT_EQ(spec.tables[kItem].num_rows, 100000u);
}

TEST(TpccTest, NewOrderFlowGraphMatchesFig7) {
  auto spec = TpccSpec(80);
  const auto& no = spec.classes[kNewOrderTxn];
  EXPECT_EQ(no.name, "NewOrder");
  // 8 tables accessed... NewOrder touches WH, DIST, CUST, NORD, ORD, ITEM,
  // STOCK, OL = 8 distinct tables via 10 action specs.
  EXPECT_EQ(no.actions.size(), 10u);
  auto per_table = no.ActionsPerTable(9);
  EXPECT_EQ(per_table[kWarehouse], 1);
  EXPECT_EQ(per_table[kDistrict], 2);   // R + U
  EXPECT_EQ(per_table[kStock], 2);      // R + U
  EXPECT_EQ(per_table[kHistory], 0);
  // Four sync points; all but the second involve variable actions.
  ASSERT_EQ(no.sync_points.size(), 4u);
  auto is_variable = [&](const core::SyncPointSpec& sp) {
    for (int a : sp.actions)
      if (no.actions[static_cast<size_t>(a)].repeat_hi > 1) return true;
    return false;
  };
  EXPECT_TRUE(is_variable(no.sync_points[0]));
  EXPECT_FALSE(is_variable(no.sync_points[1]));
  EXPECT_TRUE(is_variable(no.sync_points[2]));
  EXPECT_TRUE(is_variable(no.sync_points[3]));
  // Item probes are unaligned (separate key domain).
  EXPECT_FALSE(no.actions[6].aligned);
}

TEST(TpccTest, StockLevelIsHeavy) {
  auto spec = TpccSpec(80);
  const auto& sl = spec.classes[kStockLevel];
  double rows = 0;
  for (const auto& a : sl.actions) rows += a.rows * a.AvgRepeat();
  EXPECT_GT(rows, 300.0);  // the join reads hundreds of rows
}

TEST(TpccTest, BuildTablesPopulates) {
  auto tables = BuildTpccTables(4, 10, 10, 100);
  ASSERT_EQ(tables.size(), 9u);
  EXPECT_EQ(tables[kWarehouse]->num_rows(), 4u);
  EXPECT_EQ(tables[kDistrict]->num_rows(), 40u);
  EXPECT_EQ(tables[kCustomer]->num_rows(), 400u);
  EXPECT_EQ(tables[kItem]->num_rows(), 100u);
  EXPECT_EQ(tables[kStock]->num_rows(), 400u);
  storage::Tuple t;
  ASSERT_TRUE(tables[kStock]->Read(TpccStockKey(2, 50), &t).ok());
  EXPECT_EQ(t.GetInt(0), 2);
  EXPECT_EQ(t.GetInt(1), 50);
}

TEST(TpccTest, KeyEncodingsDisjoint) {
  // District keys of different warehouses never collide.
  EXPECT_NE(TpccDistrictKey(1, 9), TpccDistrictKey(2, 0));
  EXPECT_LT(TpccCustomerKey(0, 9, 99999), TpccCustomerKey(1, 0, 0));
  EXPECT_LT(TpccOrderLineKey(0, 0, 5, 15), TpccOrderLineKey(0, 0, 6, 0));
}

}  // namespace
}  // namespace atrapos::workload
