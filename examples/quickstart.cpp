// Quickstart: create a database, load a table, then run an atomic transfer
// as a transaction flow graph on the partitioned executor with group
// commit, and inspect the per-partition log it wrote.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/log_manager.h"
#include "storage/table.h"

using namespace atrapos;

int main() {
  // The database hosts the engine's resources — tables, island-local
  // memory arenas, metrics — for a 2-socket machine.
  engine::Database db({.topo = hw::Topology::Cube(1, 2)});

  // Define a table: accounts(id, owner, balance), range-partitioned at 500.
  storage::Schema schema({storage::Column::Int64("id"),
                          storage::Column::FixedString("owner", 16),
                          storage::Column::Int64("balance")});
  int accounts = db.AddTable(
      std::make_unique<storage::Table>(0, "accounts", schema,
                                       std::vector<uint64_t>{0, 500}));

  // Load 1000 accounts with balance 100, straight into the table (before
  // any executor runs, nothing else touches it).
  storage::Table* table = db.table(accounts);
  for (uint64_t id = 0; id < 1000; ++id) {
    storage::Tuple row(&table->schema());
    row.SetInt(0, static_cast<int64_t>(id));
    row.SetString(1, "acct-" + std::to_string(id));
    row.SetInt(2, 100);
    if (!table->Insert(id, row).ok()) return 1;
  }
  std::printf("loaded %llu accounts\n",
              static_cast<unsigned long long>(table->num_rows()));

  // ---- The flow-graph API: asynchronous, routed, staged --------------------
  // Partition [0, 500) runs on core 0 (socket 0) and [500, ...) on core 2
  // (socket 1), each drained by that core's worker thread. Under group
  // commit every partition logs into its own shard, and a transaction is
  // acknowledged once its commit markers are durable on every shard it
  // touched.
  engine::PartitionedExecutor::Options opt;
  opt.durability = engine::DurabilityMode::kGroup;
  engine::PartitionedExecutor exec(&db, db.topology(), [&] {
    core::Scheme scheme;
    core::TableScheme ts;
    ts.boundaries = {0, 500};
    ts.placement = {0, 2};
    scheme.tables.push_back(ts);
    return scheme;
  }(), opt);

  // Transfer 25 from account 1 to account 900: stage 1 reads both
  // balances on their owning partition workers, the rendezvous point
  // joins the payloads, and stage 2 applies both writes. Submit() returns
  // a future immediately — a single client thread can keep many such
  // graphs in flight.
  engine::ActionGraph transfer;
  size_t read_from = transfer.Add(
      accounts, 1, [](storage::Table* t, engine::ActionCtx& ctx) {
        storage::Tuple row;
        ATRAPOS_RETURN_NOT_OK(t->Read(1, &row));
        ctx.Emit(row.GetInt(2));
        return Status::OK();
      });
  size_t read_to = transfer.Add(
      accounts, 900, [](storage::Table* t, engine::ActionCtx& ctx) {
        storage::Tuple row;
        ATRAPOS_RETURN_NOT_OK(t->Read(900, &row));
        ctx.Emit(row.GetInt(2));
        return Status::OK();
      });
  transfer.Rvp();  // both reads complete (or the graph aborts) before writes
  transfer.Add(accounts, 1,
               [read_from](storage::Table* t, engine::ActionCtx& ctx) {
                 storage::Tuple row;
                 ATRAPOS_RETURN_NOT_OK(t->Read(1, &row));
                 row.SetInt(2, *ctx.In<int64_t>(read_from) - 25);
                 return t->Update(1, row);
               });
  transfer.Add(accounts, 900,
               [read_to](storage::Table* t, engine::ActionCtx& ctx) {
                 storage::Tuple row;
                 ATRAPOS_RETURN_NOT_OK(t->Read(900, &row));
                 row.SetInt(2, *ctx.In<int64_t>(read_to) + 25);
                 return t->Update(900, row);
               });

  auto future = exec.Submit(std::move(transfer));
  if (!future.ok()) return 1;
  std::printf("transfer: %s\n", future.value().Wait().ToString().c_str());

  storage::Tuple a, b;
  (void)table->Read(1, &a);
  (void)table->Read(900, &b);
  std::printf("balance(1) = %lld, balance(900) = %lld\n",
              static_cast<long long>(a.GetInt(2)),
              static_cast<long long>(b.GetInt(2)));

  // The acknowledged commit is durable: its epoch is at or below the
  // durable-epoch watermark, and each shard's durable LSN covers its
  // records.
  log::LogManager* wal = exec.log_manager();
  log::DurablePoint durable = wal->durable_point();
  std::printf("log records written: %llu in %zu shards (durable epoch %llu)\n",
              static_cast<unsigned long long>(wal->num_records()),
              wal->num_shards(),
              static_cast<unsigned long long>(durable.epoch));
  for (size_t i = 0; i < durable.shard_lsns.size(); ++i) {
    std::printf("  shard %zu durable LSN %llu\n", i,
                static_cast<unsigned long long>(durable.shard_lsns[i]));
  }
  return 0;
}
