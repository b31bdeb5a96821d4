// Tests of the benchmark's oracles themselves: the Definition 5/6 recount
// on a hand-made trace with known answers, and the replay check catching a
// committed transaction that went missing.
//
//   perfbench_oracle_test   (exit status 0 = every check held)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dist/replay.h"
#include "oracles.h"
#include "partition/evaluator.h"
#include "partition/mapping.h"
#include "partition/solution.h"
#include "workloads/tpcc.h"

namespace {

using namespace jecb;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

bool Mentions(const std::vector<std::string>& failures, const std::string& check) {
  for (const std::string& f : failures) {
    if (f.rfind(check + ":", 0) == 0) return true;
  }
  return false;
}

/// Table A (4 rows) partitioned by row id mod 2, table R (2 rows)
/// replicated, and six transactions whose classification is known.
void RecountKnownAnswers() {
  Schema schema;
  for (const char* name : {"A", "R"}) {
    TableId t = schema.AddTable(name).value();
    CheckOk(schema.AddColumn(t, "ID", ValueType::kInt64), "schema");
    CheckOk(schema.SetPrimaryKey(t, {"ID"}), "schema");
  }
  Database db(schema);
  std::vector<TupleId> a, r;
  for (int64_t i = 0; i < 4; ++i) a.push_back(db.MustInsert("A", {i}));
  for (int64_t i = 0; i < 2; ++i) r.push_back(db.MustInsert("R", {i}));

  DatabaseSolution solution(2, 2);
  solution.Set(a[0].table, std::make_shared<CallbackPartitioner>(
                               [](const Database&, TupleId t) {
                                 return static_cast<int32_t>(t.row % 2);
                               },
                               "row mod 2"));
  solution.Set(r[0].table, std::make_shared<ReplicatedTable>());

  Trace trace;
  const uint32_t cls = trace.InternClass("T");
  auto txn = [&](std::vector<Access> accesses) {
    Transaction t;
    t.class_id = cls;
    t.accesses = std::move(accesses);
    trace.Add(std::move(t));
  };
  txn({{a[0], false}, {a[2], false}});  // one partition: local
  txn({{a[0], false}, {a[1], true}});   // partitions 0 and 1: distributed
  txn({{a[1], false}, {r[0], false}});  // replicated read: local
  txn({{a[1], false}, {r[1], true}});   // replicated write: distributed
  txn({{r[0], false}});                 // replicated reads only: local
  txn({{a[3], true}, {a[3], false}});   // one tuple twice: local

  const perfbench::Recount rc = perfbench::RecountDistributed(db, solution, trace);
  Check(rc.total == 6, "recount total");
  Check(rc.distributed == 2, "recount distributed == 2");
  Check(rc.is_distributed ==
            std::vector<bool>({false, true, false, true, false, false}),
        "recount per-transaction flags");
  Check(rc.unmapped_accesses == 0, "no unmapped accesses");
  Check(Evaluate(db, solution, trace).distributed_txns == rc.distributed,
        "recount agrees with Evaluate");

  // A tuple the solution cannot place is reported, not silently counted.
  DatabaseSolution broken = solution;
  broken.Set(a[0].table, std::make_shared<CallbackPartitioner>(
                             [](const Database&, TupleId) { return kUnknownPartition; },
                             "unknown"));
  Check(perfbench::RecountDistributed(db, broken, trace).unmapped_accesses == 8,
        "every access to the unplaceable table is unmapped");
}

/// A replay of the whole trace passes every check; a replay that lost one
/// committed distributed transaction fails the digest check.
void ReplayCheckCatchesDroppedCommit() {
  TpccConfig cfg;
  cfg.warehouses = 4;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 5;
  cfg.items = 20;
  WorkloadBundle bundle = TpccWorkload(cfg).Make(300, 7);
  const int32_t k = 4;
  const DatabaseSolution solution = MakeNaiveHashSolution(*bundle.db, k);
  const Trace& trace = bundle.trace;
  const perfbench::Recount rc = perfbench::RecountDistributed(*bundle.db, solution, trace);
  const perfbench::ExpectedExchange expected =
      perfbench::ExpectExchange(*bundle.db, trace, rc.is_distributed);
  Check(rc.distributed > 0 && expected.tuples > 0, "fixture has distributed reads");

  RuntimeOptions opt;
  opt.transport = TransportKind::kUnixSocket;
  opt.num_clients = 2;
  opt.local_work_us = 0;
  opt.round_trip_us = 0;
  const ReplayReport full = Replay(*bundle.db, solution, trace, opt, "oracle-full");
  const std::vector<std::string> ok = perfbench::CheckReplay(full, rc, expected, k);
  for (const std::string& f : ok) std::fprintf(stderr, "  %s\n", f.c_str());
  Check(ok.empty(), "whole replay passes every check");

  // Drop the last distributed transaction. Only local transactions follow
  // it, so every other committed read set keeps its transaction index and
  // the digest differs by exactly the dropped one.
  size_t drop = trace.size();
  for (size_t i = trace.size(); i-- > 0;) {
    if (rc.is_distributed[i]) {
      drop = i;
      break;
    }
  }
  Check(drop < trace.size(), "found a distributed transaction");
  Trace dropped;
  for (const std::string& name : trace.class_names()) dropped.InternClass(name);
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i != drop) dropped.Add(trace.transactions()[i]);
  }
  const ReplayReport lost = Replay(*bundle.db, solution, dropped, opt, "oracle-lost");
  const std::vector<std::string> bad = perfbench::CheckReplay(lost, rc, expected, k);
  Check(Mentions(bad, "exchange_digest"), "digest check fails on a dropped commit");
  Check(Mentions(bad, "committed"), "commit count check fails on a dropped commit");
}

}  // namespace

int main() {
  RecountKnownAnswers();
  ReplayCheckCatchesDroppedCommit();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d oracle test check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("oracle tests passed\n");
  return 0;
}
