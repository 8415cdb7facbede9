#include "workload/tatp.h"

namespace atrapos::workload {

using core::ActionSpec;
using core::OpType;
using core::SyncPointSpec;
using core::TxnClass;
using core::WorkloadSpec;

namespace {

/// Key-domain sizes relative to `subscribers` (aligned domains: the cost
/// model reasons about all four tables in the Subscriber key space scaled
/// by these factors; we expose row counts directly).
WorkloadSpec TatpSkeleton(uint64_t subscribers) {
  WorkloadSpec spec;
  spec.name = "tatp";
  spec.tables = {{"Subscriber", subscribers},
                 {"AccessInfo", subscribers * 4},
                 {"SpecialFacility", subscribers * 4},
                 {"CallForwarding", subscribers * 32}};
  return spec;
}

TxnClass MakeGetSubData() {
  TxnClass c;
  c.name = "GetSubData";
  c.actions = {ActionSpec{kSubscriber, OpType::kRead, 1, 1, 1, true}};
  c.weight = 35;
  return c;
}

TxnClass MakeGetNewDest() {
  TxnClass c;
  c.name = "GetNewDest";
  c.actions = {
      ActionSpec{kSpecialFacility, OpType::kRead, 1, 1, 1, true},
      ActionSpec{kCallForwarding, OpType::kRead, 1.5, 1, 1, true},
  };
  c.sync_points = {SyncPointSpec{{0, 1}, 96}};
  c.weight = 10;
  return c;
}

TxnClass MakeGetAccData() {
  TxnClass c;
  c.name = "GetAccData";
  c.actions = {ActionSpec{kAccessInfo, OpType::kRead, 1, 1, 1, true}};
  c.weight = 35;
  return c;
}

TxnClass MakeUpdSubData() {
  TxnClass c;
  c.name = "UpdSubData";
  c.actions = {
      ActionSpec{kSubscriber, OpType::kUpdate, 1, 1, 1, true},
      ActionSpec{kSpecialFacility, OpType::kUpdate, 1, 1, 1, true},
  };
  c.sync_points = {SyncPointSpec{{0, 1}, 64}};
  c.weight = 2;
  return c;
}

TxnClass MakeUpdLocation() {
  TxnClass c;
  c.name = "UpdLocation";
  c.actions = {ActionSpec{kSubscriber, OpType::kUpdate, 1, 1, 1, true}};
  c.weight = 14;
  return c;
}

TxnClass MakeInsCallFwd() {
  TxnClass c;
  c.name = "InsCallFwd";
  c.actions = {
      ActionSpec{kSubscriber, OpType::kRead, 1, 1, 1, true},
      ActionSpec{kSpecialFacility, OpType::kRead, 1, 1, 1, true},
      ActionSpec{kCallForwarding, OpType::kInsert, 1, 1, 1, true},
  };
  c.sync_points = {SyncPointSpec{{0, 1}, 64}, SyncPointSpec{{1, 2}, 96}};
  c.weight = 2;
  return c;
}

TxnClass MakeDelCallFwd() {
  TxnClass c;
  c.name = "DelCallFwd";
  c.actions = {
      ActionSpec{kSubscriber, OpType::kRead, 1, 1, 1, true},
      ActionSpec{kCallForwarding, OpType::kDelete, 1, 1, 1, true},
  };
  c.sync_points = {SyncPointSpec{{0, 1}, 64}};
  c.weight = 2;
  return c;
}

}  // namespace

core::WorkloadSpec TatpSpec(uint64_t subscribers) {
  WorkloadSpec spec = TatpSkeleton(subscribers);
  spec.classes = {MakeGetSubData(), MakeGetNewDest(), MakeGetAccData(),
                  MakeUpdSubData(), MakeUpdLocation(), MakeInsCallFwd(),
                  MakeDelCallFwd()};
  return spec;
}

core::WorkloadSpec TatpSingleTxnSpec(TatpTxn txn, uint64_t subscribers) {
  WorkloadSpec spec = TatpSpec(subscribers);
  for (size_t i = 0; i < spec.classes.size(); ++i)
    spec.classes[i].weight = (static_cast<int>(i) == txn) ? 1.0 : 0.0;
  spec.name = "tatp-" + spec.classes[static_cast<size_t>(txn)].name;
  return spec;
}

core::Scheme TatpScheme(uint64_t subscribers, int partitions) {
  core::Scheme scheme;
  scheme.tables.resize(4);
  for (int p = 0; p < partitions; ++p) {
    const uint64_t s = subscribers * static_cast<uint64_t>(p) /
                       static_cast<uint64_t>(partitions);
    const uint64_t bounds[4] = {s, TatpEncodeAiKey(s, 0),
                                TatpEncodeSfKey(s, 0),
                                TatpEncodeCfKey(s, 0, 0)};
    for (int t = 0; t < 4; ++t) {
      scheme.tables[static_cast<size_t>(t)].boundaries.push_back(bounds[t]);
      scheme.tables[static_cast<size_t>(t)].placement.push_back(p);
    }
  }
  return scheme;
}

std::vector<std::unique_ptr<storage::Table>> BuildTatpTables(
    uint64_t subscribers, std::vector<uint64_t> boundaries, uint64_t seed) {
  using storage::Column;
  using storage::Schema;
  using storage::Table;
  using storage::Tuple;
  Rng rng(seed);
  std::vector<std::unique_ptr<Table>> tables;

  // Subscriber(s_id, sub_nbr, bits, hex, byte2, msc_location, vlr_location)
  Schema sub_schema({Column::Int64("s_id"), Column::FixedString("sub_nbr", 16),
                     Column::Int64("bit_1"), Column::Int64("hex_1"),
                     Column::Int64("byte2_1"), Column::Int64("msc_location"),
                     Column::Int64("vlr_location")});
  auto sub = std::make_unique<Table>(kSubscriber, "Subscriber", sub_schema,
                                     boundaries);
  for (uint64_t s = 0; s < subscribers; ++s) {
    Tuple t(&sub->schema());
    t.SetInt(0, static_cast<int64_t>(s));
    t.SetString(1, std::to_string(s));
    t.SetInt(2, static_cast<int64_t>(rng.Uniform(2)));
    t.SetInt(3, static_cast<int64_t>(rng.Uniform(16)));
    t.SetInt(4, static_cast<int64_t>(rng.Uniform(256)));
    t.SetInt(5, static_cast<int64_t>(rng.Next() % (1ULL << 31)));
    t.SetInt(6, static_cast<int64_t>(rng.Next() % (1ULL << 31)));
    (void)sub->Insert(s, t);
  }
  tables.push_back(std::move(sub));

  // AccessInfo(s_id, ai_type, data1, data2, data3, data4): 1-4 per sub.
  Schema ai_schema({Column::Int64("s_id"), Column::Int64("ai_type"),
                    Column::Int64("data1"), Column::Int64("data2"),
                    Column::FixedString("data3", 4),
                    Column::FixedString("data4", 8)});
  std::vector<uint64_t> scaled;
  for (uint64_t b : boundaries) scaled.push_back(b * 4);
  auto ai = std::make_unique<Table>(kAccessInfo, "AccessInfo", ai_schema,
                                    scaled);
  for (uint64_t s = 0; s < subscribers; ++s) {
    uint64_t n = 1 + rng.Uniform(4);
    for (uint64_t k = 0; k < n; ++k) {
      Tuple t(&ai->schema());
      t.SetInt(0, static_cast<int64_t>(s));
      t.SetInt(1, static_cast<int64_t>(k));
      t.SetInt(2, static_cast<int64_t>(rng.Uniform(256)));
      t.SetInt(3, static_cast<int64_t>(rng.Uniform(256)));
      (void)ai->Insert(TatpEncodeAiKey(s, k), t);
    }
  }
  tables.push_back(std::move(ai));

  // SpecialFacility(s_id, sf_type, is_active, error_cntrl, data_a, data_b).
  Schema sf_schema({Column::Int64("s_id"), Column::Int64("sf_type"),
                    Column::Int64("is_active"), Column::Int64("error_cntrl"),
                    Column::Int64("data_a"), Column::FixedString("data_b", 8)});
  auto sf = std::make_unique<Table>(kSpecialFacility, "SpecialFacility",
                                    sf_schema, scaled);
  std::vector<std::vector<uint64_t>> sf_types(subscribers);
  for (uint64_t s = 0; s < subscribers; ++s) {
    uint64_t n = 1 + rng.Uniform(4);
    for (uint64_t k = 0; k < n; ++k) {
      Tuple t(&sf->schema());
      t.SetInt(0, static_cast<int64_t>(s));
      t.SetInt(1, static_cast<int64_t>(k));
      t.SetInt(2, rng.Chance(0.85) ? 1 : 0);
      t.SetInt(4, static_cast<int64_t>(rng.Uniform(256)));
      (void)sf->Insert(TatpEncodeSfKey(s, k), t);
      sf_types[s].push_back(k);
    }
  }
  tables.push_back(std::move(sf));

  // CallForwarding(s_id, sf_type, start_time, end_time, numberx): 0-3 per SF.
  Schema cf_schema({Column::Int64("s_id"), Column::Int64("sf_type"),
                    Column::Int64("start_time"), Column::Int64("end_time"),
                    Column::FixedString("numberx", 16)});
  std::vector<uint64_t> cf_scaled;
  for (uint64_t b : boundaries) cf_scaled.push_back(b * 32);
  auto cf = std::make_unique<Table>(kCallForwarding, "CallForwarding",
                                    cf_schema, cf_scaled);
  for (uint64_t s = 0; s < subscribers; ++s) {
    for (uint64_t k : sf_types[s]) {
      uint64_t n = rng.Uniform(4);
      for (uint64_t j = 0; j < n; ++j) {
        uint64_t start = j * 8;
        Tuple t(&cf->schema());
        t.SetInt(0, static_cast<int64_t>(s));
        t.SetInt(1, static_cast<int64_t>(k));
        t.SetInt(2, static_cast<int64_t>(start));
        t.SetInt(3, static_cast<int64_t>(start + 1 + rng.Uniform(8)));
        t.SetString(4, std::to_string(rng.Next() % 1000000));
        (void)cf->Insert(TatpEncodeCfKey(s, k, start), t);
      }
    }
  }
  tables.push_back(std::move(cf));
  return tables;
}

}  // namespace atrapos::workload
