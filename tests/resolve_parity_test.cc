// Resolve parity: the memo-free batch resolve (ResolvePartitions through
// TablePartitioner::Resolve) must give every dictionary tuple the partition
// the memoized PartitionOf gives it, at 1 and 4 threads — over 0-hop
// (TPC-C) and multi-hop (TPC-E) join paths, a dangling foreign key, a
// replicated table, and the naive-hash CallbackPartitioner. Phase 3 scores
// combinations with exactly this resolve, so the second half pins
// Jecb::Partition's solution, training EvalResult and CombinerReport on
// three workloads to the values the pipeline produced when Phase 3 still
// scored through delta evaluation over the memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "jecb/jecb.h"
#include "partition/evaluator.h"
#include "test_util.h"
#include "trace/flat_trace.h"
#include "workloads/tpcc.h"
#include "workloads/tpce.h"

namespace jecb {
namespace {

TpccConfig SmallTpcc(double remote_payment_prob = 0.15) {
  TpccConfig cfg;
  cfg.warehouses = 4;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 30;
  cfg.initial_orders_per_district = 2;
  cfg.remote_payment_prob = remote_payment_prob;
  return cfg;
}

TpceConfig SmallTpce() {
  TpceConfig cfg;
  cfg.customers = 60;
  cfg.brokers = 6;
  cfg.companies = 15;
  cfg.securities = 30;
  cfg.initial_trades_per_account = 2;
  return cfg;
}

/// ResolvePartitions at 1 and 4 threads, and Resolve per tuple, against the
/// memoized PartitionOf of every dictionary tuple. The batch resolve runs
/// first so the memo cannot feed it.
void ExpectResolveMatchesPartitionOf(const Database& db,
                                     const DatabaseSolution& solution,
                                     const FlatTrace& flat) {
  ThreadPool pool(4);
  const std::vector<int32_t> serial = ResolvePartitions(db, solution, flat);
  const std::vector<int32_t> parallel = ResolvePartitions(db, solution, flat, &pool);
  ASSERT_EQ(serial.size(), flat.num_tuples());
  ASSERT_EQ(parallel.size(), flat.num_tuples());
  for (uint32_t i = 0; i < flat.num_tuples(); ++i) {
    const TupleId t = flat.tuple(i);
    const int32_t memo = solution.PartitionOf(db, t);
    ASSERT_EQ(serial[i], memo) << "table " << t.table << " row " << t.row;
    ASSERT_EQ(parallel[i], memo) << "table " << t.table << " row " << t.row;
    ASSERT_EQ(solution.Resolve(db, t), memo);
  }
}

/// Longest join path among the solution's JoinPathPartitioners.
size_t MaxHops(const DatabaseSolution& solution) {
  size_t hops = 0;
  for (size_t t = 0; t < solution.num_tables(); ++t) {
    const auto* p = dynamic_cast<const JoinPathPartitioner*>(
        solution.Get(static_cast<TableId>(t)));
    if (p != nullptr) hops = std::max(hops, p->path().length());
  }
  return hops;
}

JecbResult PartitionOrDie(WorkloadBundle* bundle, int32_t threads) {
  JecbOptions opt;
  opt.num_partitions = 4;
  opt.num_threads = threads;
  Result<JecbResult> res =
      Jecb(opt).Partition(bundle->db.get(), bundle->procedures, bundle->trace);
  CheckOk(res.status(), "resolve_parity_test");
  return std::move(res).value();
}

TEST(ResolveParityTest, TpccZeroHopPaths) {
  WorkloadBundle bundle = TpccWorkload(SmallTpcc()).Make(3000, 7);
  const JecbResult result = PartitionOrDie(&bundle, 1);
  EXPECT_EQ(MaxHops(result.solution), 0u);
  ExpectResolveMatchesPartitionOf(*bundle.db, result.solution,
                                  FlatTrace::FromTrace(bundle.trace));
}

TEST(ResolveParityTest, TpceMultiHopPaths) {
  WorkloadBundle bundle = TpceWorkload(SmallTpce()).Make(3000, 7);
  const JecbResult result = PartitionOrDie(&bundle, 1);
  EXPECT_GE(MaxHops(result.solution), 2u);
  ExpectResolveMatchesPartitionOf(*bundle.db, result.solution,
                                  FlatTrace::FromTrace(bundle.trace));
}

TEST(ResolveParityTest, DanglingForeignKeyAndReplicatedTable) {
  testing::CustInfoDb fixture = testing::MakeCustInfoDb();
  Database& db = *fixture.db;
  const Schema& schema = db.schema();
  // A trade whose account does not exist: its path to the customer dangles.
  const TupleId dangling = db.MustInsert("TRADE", {int64_t(99), int64_t(404), int64_t(1)});
  Trace trace = testing::MakeCustInfoTrace(fixture, 2);
  Transaction txn;
  txn.class_id = 0;
  txn.Write(dangling);
  txn.Read(fixture.trades[0]);
  txn.Read(fixture.customers[1]);
  trace.Add(std::move(txn));
  const FlatTrace flat = FlatTrace::FromTrace(trace);

  const TableId trade = schema.FindTable("TRADE").value();
  const TableId account = schema.FindTable("CUSTOMER_ACCOUNT").value();
  const TableId holding = schema.FindTable("HOLDING_SUMMARY").value();
  JoinPath to_customer;
  to_customer.source_table = trade;
  for (FkIdx f = 0; f < schema.foreign_keys().size(); ++f) {
    if (schema.foreign_keys()[f].table == trade) to_customer.hops = {f};
  }
  to_customer.dest = schema.ResolveQualified("CUSTOMER_ACCOUNT.CA_C_ID").value();
  ASSERT_TRUE(to_customer.Validate(schema).ok());
  JoinPath account_path;
  account_path.source_table = account;
  account_path.dest = schema.ResolveQualified("CUSTOMER_ACCOUNT.CA_C_ID").value();

  auto hash = std::make_shared<HashMapping>(4);
  DatabaseSolution solution(4, schema.num_tables());
  solution.Set(trade, std::make_shared<JoinPathPartitioner>(to_customer, hash));
  solution.Set(account, std::make_shared<JoinPathPartitioner>(account_path, hash));
  solution.Set(holding, std::make_shared<ReplicatedTable>());
  // CUSTOMER keeps no partitioner: the solution treats it as replicated.

  EXPECT_EQ(solution.Resolve(db, dangling), kUnknownPartition);
  EXPECT_EQ(solution.Resolve(db, fixture.holding_summaries[0]), kReplicated);
  EXPECT_EQ(solution.Resolve(db, fixture.customers[0]), kReplicated);
  EXPECT_GE(solution.Resolve(db, fixture.trades[0]), 0);
  ExpectResolveMatchesPartitionOf(db, solution, flat);
}

TEST(ResolveParityTest, NaiveHashCallbackPartitioner) {
  WorkloadBundle bundle = TpccWorkload(SmallTpcc()).Make(3000, 7);
  ExpectResolveMatchesPartitionOf(*bundle.db, MakeNaiveHashSolution(*bundle.db, 4),
                                  FlatTrace::FromTrace(bundle.trace));
}

// ---- Pinned Jecb::Partition outcomes ---------------------------------------

struct Pinned {
  std::string describe;
  EvalResult eval;
  CombinerReport report;
};

void ExpectPinned(WorkloadBundle bundle, const Pinned& want) {
  for (int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const JecbResult got = PartitionOrDie(&bundle, threads);
    EXPECT_EQ(got.solution.Describe(bundle.db->schema()), want.describe);
    const EvalResult eval =
        Evaluate(*bundle.db, got.solution, FlatTrace::FromTrace(bundle.trace));
    EXPECT_EQ(eval.total_txns, want.eval.total_txns);
    EXPECT_EQ(eval.distributed_txns, want.eval.distributed_txns);
    EXPECT_EQ(eval.class_total, want.eval.class_total);
    EXPECT_EQ(eval.class_distributed, want.eval.class_distributed);
    EXPECT_EQ(eval.partitions_touched, want.eval.partitions_touched);
    EXPECT_EQ(eval.partition_load, want.eval.partition_load);
    const CombinerReport& rep = got.combiner_report;
    EXPECT_EQ(rep.naive_search_space, want.report.naive_search_space);
    EXPECT_EQ(rep.evaluated_combinations, want.report.evaluated_combinations);
    EXPECT_EQ(rep.candidate_attrs, want.report.candidate_attrs);
    EXPECT_EQ(rep.chosen_attr, want.report.chosen_attr);
    EXPECT_EQ(rep.best_train_cost, want.report.best_train_cost);
    EXPECT_EQ(rep.replicated_tables, want.report.replicated_tables);
  }
}

const char* const kTpccTables =
    "  WAREHOUSE: WAREHOUSE.W_ID via hash\n"
    "  DISTRICT: DISTRICT.D_W_ID via hash\n"
    "  CUSTOMER: CUSTOMER.C_W_ID via hash\n"
    "  HISTORY: HISTORY.H_C_W_ID via hash\n"
    "  ORDERS: ORDERS.O_W_ID via hash\n"
    "  NEW_ORDER: NEW_ORDER.NO_W_ID via hash\n"
    "  ORDER_LINE: ORDER_LINE.OL_W_ID via hash\n"
    "  ITEM: replicated\n"
    "  STOCK: STOCK.S_W_ID via hash\n";

const std::vector<std::string> kTpccCandidates = {
    "WAREHOUSE.W_ID", "DISTRICT.D_ID", "CUSTOMER.C_ID", "ORDERS.O_ID",
    "STOCK.S_QUANTITY"};

TEST(PartitionPinTest, Tpcc) {
  Pinned want;
  want.describe = kTpccTables;
  want.eval = {4000, 339, {1782, 1744, 153, 161, 160}, {129, 210, 0, 0, 0}, 680,
               {2153, 0, 1080, 1108}};
  want.report = {45000, 5, kTpccCandidates, "WAREHOUSE.W_ID", 0.084750000000000006, {}};
  ExpectPinned(TpccWorkload(SmallTpcc()).Make(4000, 7), want);
}

TEST(PartitionPinTest, TpccRemotePayments) {
  Pinned want;
  want.describe = kTpccTables;
  // Remote payments leave HISTORY replicated.
  want.describe.replace(want.describe.find("HISTORY.H_C_W_ID via hash"),
                        std::string("HISTORY.H_C_W_ID via hash").size(), "replicated");
  want.eval = {4000, 1893, {1780, 1756, 159, 154, 151}, {137, 1756, 0, 0, 0}, 2449,
               {2273, 0, 1127, 1156}};
  want.report = {9000, 5, kTpccCandidates, "WAREHOUSE.W_ID", 0.47325, {"HISTORY"}};
  ExpectPinned(TpccWorkload(SmallTpcc(0.3)).Make(4000, 7), want);
}

TEST(PartitionPinTest, Tpce) {
  Pinned want;
  want.describe =
      "  ZIP_CODE: replicated\n"
      "  ADDRESS: replicated\n"
      "  STATUS_TYPE: replicated\n"
      "  TAXRATE: replicated\n"
      "  SECTOR: replicated\n"
      "  INDUSTRY: replicated\n"
      "  EXCHANGE: replicated\n"
      "  COMPANY: replicated\n"
      "  COMPANY_COMPETITOR: replicated\n"
      "  SECURITY: replicated\n"
      "  DAILY_MARKET: replicated\n"
      "  FINANCIAL: replicated\n"
      "  LAST_TRADE: replicated\n"
      "  NEWS_ITEM: replicated\n"
      "  NEWS_XREF: replicated\n"
      "  CHARGE: replicated\n"
      "  COMMISSION_RATE: replicated\n"
      "  TRADE_TYPE: replicated\n"
      "  CUSTOMER: replicated\n"
      "  CUSTOMER_ACCOUNT: CUSTOMER_ACCOUNT.CA_C_ID via hash\n"
      "  ACCOUNT_PERMISSION: replicated\n"
      "  CUSTOMER_TAXRATE: replicated\n"
      "  WATCH_LIST: replicated\n"
      "  WATCH_ITEM: replicated\n"
      "  BROKER: replicated\n"
      "  TRADE: TRADE -> CUSTOMER_ACCOUNT.CA_C_ID via hash\n"
      "  TRADE_HISTORY: TRADE_HISTORY -> TRADE -> CUSTOMER_ACCOUNT.CA_C_ID via hash\n"
      "  SETTLEMENT: SETTLEMENT -> TRADE -> CUSTOMER_ACCOUNT.CA_C_ID via hash\n"
      "  TRADE_REQUEST: TRADE_REQUEST -> TRADE -> CUSTOMER_ACCOUNT.CA_C_ID via hash\n"
      "  CASH_TRANSACTION: CASH_TRANSACTION -> TRADE -> CUSTOMER_ACCOUNT.CA_C_ID via "
      "hash\n"
      "  HOLDING: HOLDING -> TRADE -> CUSTOMER_ACCOUNT.CA_C_ID via hash\n"
      "  HOLDING_HISTORY: HOLDING_HISTORY -> TRADE -> CUSTOMER_ACCOUNT.CA_C_ID via "
      "hash\n"
      "  HOLDING_SUMMARY: HOLDING_SUMMARY -> CUSTOMER_ACCOUNT.CA_C_ID via hash\n";
  want.eval = {4000,
               867,
               {203, 509, 42, 709, 540, 91, 108, 91, 25, 431, 398, 775, 24, 27, 27},
               {203, 0, 42, 0, 0, 89, 0, 86, 0, 0, 398, 0, 23, 0, 26},
               1861,
               {1023, 1430, 785, 1216}};
  want.report = {5529600,
                 6,
                 {"CUSTOMER_ACCOUNT.CA_B_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                  "TRADE.T_S_SYMB", "TRADE_REQUEST.TR_B_ID", "HOLDING.H_S_SYMB"},
                 "CUSTOMER_ACCOUNT.CA_C_ID",
                 0.21675,
                 {"BROKER"}};
  ExpectPinned(TpceWorkload(SmallTpce()).Make(4000, 7), want);
}

}  // namespace
}  // namespace jecb
