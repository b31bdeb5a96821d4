// Parity contract of the columnar pipeline: FlatTrace/TraceView must mirror
// the row-oriented Trace helpers exactly, FlatTrace's dense dictionary must
// equal a hash-map interner's, the resolve-once Evaluate must be
// bit-identical to the row-oriented evaluator at every thread count, and the
// shared JoinPathResolver must return the same values as direct path
// evaluation. (Jecb::Partition's own outputs are pinned in
// resolve_parity_test.cc.)
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "partition/evaluator.h"
#include "partition/join_path_resolver.h"
#include "test_util.h"
#include "trace/flat_trace.h"
#include "trace/trace.h"
#include "workloads/synthetic.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/tpce.h"

namespace jecb {
namespace {

// ---- Layout ---------------------------------------------------------------

TEST(FlatTraceTest, FromTracePreservesAccessesClassesAndWriteBits) {
  Trace trace;
  uint32_t a = trace.InternClass("A");
  uint32_t b = trace.InternClass("B");
  Transaction t1;
  t1.class_id = a;
  t1.Read({3, 7});
  t1.Write({3, 7});  // same tuple read + written: one dictionary entry
  t1.Read({5, 1});
  trace.Add(std::move(t1));
  Transaction t2;
  t2.class_id = b;
  t2.Write({5, 1});
  trace.Add(std::move(t2));

  FlatTrace flat = FlatTrace::FromTrace(trace);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat.num_accesses(), 4u);
  EXPECT_EQ(flat.num_tuples(), 2u);  // {3,7} and {5,1}
  EXPECT_EQ(flat.num_classes(), 2u);
  EXPECT_EQ(flat.class_name(a), "A");
  EXPECT_EQ(flat.class_of(0), a);
  EXPECT_EQ(flat.class_of(1), b);

  // First-touch dictionary order.
  EXPECT_EQ(flat.tuple(0), (TupleId{3, 7}));
  EXPECT_EQ(flat.tuple(1), (TupleId{5, 1}));

  auto acc1 = flat.accesses(0);
  ASSERT_EQ(acc1.size(), 3u);
  EXPECT_EQ(acc1[0].tuple_index(), 0u);
  EXPECT_FALSE(acc1[0].write());
  EXPECT_EQ(acc1[1].tuple_index(), 0u);
  EXPECT_TRUE(acc1[1].write());
  EXPECT_EQ(acc1[2].tuple_index(), 1u);
  auto acc2 = flat.accesses(1);
  ASSERT_EQ(acc2.size(), 1u);
  EXPECT_EQ(acc2[0].tuple_index(), 1u);
  EXPECT_TRUE(acc2[0].write());
}

// ---- Dictionary identity -------------------------------------------------

/// The columnar image built with a hash-map interner — the reference the
/// dense per-table intern arrays of FromTrace must reproduce exactly.
struct ReferenceFlat {
  std::vector<TupleId> tuples;
  std::vector<uint32_t> access_bits;
  std::vector<size_t> offsets;
  std::vector<uint32_t> classes;
};

ReferenceFlat ReferenceIntern(const Trace& trace) {
  ReferenceFlat out;
  std::unordered_map<TupleId, uint32_t, TupleIdHash> intern;
  out.offsets.push_back(0);
  for (const Transaction& t : trace.transactions()) {
    out.classes.push_back(t.class_id);
    for (const Access& a : t.accesses) {
      auto [it, inserted] =
          intern.emplace(a.tuple, static_cast<uint32_t>(out.tuples.size()));
      if (inserted) out.tuples.push_back(a.tuple);
      out.access_bits.push_back(it->second |
                                (a.write ? PackedAccess::kWriteBit : 0u));
    }
    out.offsets.push_back(out.access_bits.size());
  }
  return out;
}

void ExpectMatchesReferenceInterner(const Trace& trace) {
  const FlatTrace flat = FlatTrace::FromTrace(trace);
  const ReferenceFlat ref = ReferenceIntern(trace);
  EXPECT_EQ(flat.tuples(), ref.tuples);
  ASSERT_EQ(flat.size(), ref.classes.size());
  std::vector<uint32_t> access_bits;
  std::vector<size_t> offsets = {0};
  std::vector<uint32_t> classes;
  const PackedAccess* base = flat.size() > 0 ? flat.accesses(0).data() : nullptr;
  for (uint32_t i = 0; i < flat.size(); ++i) {
    classes.push_back(flat.class_of(i));
    std::span<const PackedAccess> acc = flat.accesses(i);
    EXPECT_EQ(static_cast<size_t>(acc.data() - base), offsets.back()) << "txn " << i;
    for (PackedAccess a : acc) access_bits.push_back(a.bits);
    offsets.push_back(static_cast<size_t>(acc.data() + acc.size() - base));
  }
  EXPECT_EQ(access_bits, ref.access_bits);
  EXPECT_EQ(offsets, ref.offsets);
  EXPECT_EQ(classes, ref.classes);
  EXPECT_EQ(flat.num_accesses(), ref.access_bits.size());
}

TEST(FlatTraceTest, DictionaryMatchesReferenceInternerOnSparseRows) {
  // Tables 1, 3 and 4 are never touched; rows are sparse and large; tuples
  // repeat within one transaction and across transactions; one transaction
  // is empty.
  Trace trace;
  const uint32_t a = trace.InternClass("A");
  const uint32_t b = trace.InternClass("B");
  Transaction t1;
  t1.class_id = a;
  t1.Read({5, 1u << 20});
  t1.Write({2, 3});
  t1.Read({5, 1u << 20});
  t1.Write({5, 1u << 20});
  t1.Read({0, 0});
  trace.Add(std::move(t1));
  Transaction empty;
  empty.class_id = b;
  trace.Add(std::move(empty));
  Transaction t3;
  t3.class_id = b;
  t3.Write({2, 999'999});
  t3.Read({2, 3});
  t3.Read({0, 77'777});
  t3.Read({0, 0});
  t3.Write({2, 999'999});
  trace.Add(std::move(t3));
  ExpectMatchesReferenceInterner(trace);
  EXPECT_EQ(FlatTrace::FromTrace(trace).num_tuples(), 5u);
}

TEST(FlatTraceTest, DictionaryMatchesReferenceInternerOnBenchmarks) {
  ExpectMatchesReferenceInterner(TpccWorkload().Make(3000, 13).trace);
  ExpectMatchesReferenceInterner(TpceWorkload().Make(3000, 13).trace);
}

// A view and a legacy Trace describe the same workload when every selected
// transaction has the same class and the same (tuple, write) sequence.
void ExpectViewMatchesTrace(const TraceView& view, const Trace& legacy) {
  ASSERT_EQ(view.size(), legacy.size());
  const std::vector<Transaction>& txns = legacy.transactions();
  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.class_of(i), txns[i].class_id) << "txn " << i;
    auto accesses = view.accesses(i);
    ASSERT_EQ(accesses.size(), txns[i].accesses.size()) << "txn " << i;
    for (size_t j = 0; j < accesses.size(); ++j) {
      EXPECT_EQ(view.trace().tuple(accesses[j].tuple_index()),
                txns[i].accesses[j].tuple);
      EXPECT_EQ(accesses[j].write(), txns[i].accesses[j].write);
    }
  }
}

TEST(TraceViewTest, FilterSplitHeadMirrorTraceHelpers) {
  WorkloadBundle bundle = TpccWorkload().Make(2000, 13);
  FlatTrace flat = FlatTrace::FromTrace(bundle.trace);
  TraceView all(&flat);
  ExpectViewMatchesTrace(all, bundle.trace);

  for (uint32_t cls = 0; cls < bundle.trace.num_classes(); ++cls) {
    Trace legacy_cls = bundle.trace.FilterClass(cls);
    TraceView view_cls = all.FilterClass(cls);
    ExpectViewMatchesTrace(view_cls, legacy_cls);

    // The composition Phase 2 performs: filter, then split.
    auto [legacy_train, legacy_test] = legacy_cls.SplitTrainTest(0.3);
    auto [view_train, view_test] = view_cls.SplitTrainTest(0.3);
    ExpectViewMatchesTrace(view_train, legacy_train);
    ExpectViewMatchesTrace(view_test, legacy_test);

    ExpectViewMatchesTrace(view_cls.Head(5), legacy_cls.Head(5));
    // Head larger than the view is the whole view.
    ExpectViewMatchesTrace(view_cls.Head(view_cls.size() + 100), legacy_cls);
  }

  // Split of the unfiltered trace, and fractions at the edges.
  for (double f : {0.0, 0.5, 1.0}) {
    auto [lt, lh] = bundle.trace.SplitTrainTest(f);
    auto [vt, vh] = all.SplitTrainTest(f);
    ExpectViewMatchesTrace(vt, lt);
    ExpectViewMatchesTrace(vh, lh);
  }
}

// ---- Resolver -------------------------------------------------------------

TEST(RowValueCacheTest, FindInsertAndGrowthKeepStablePointers) {
  RowValueCache cache;
  const Value* missing = nullptr;
  EXPECT_FALSE(cache.Find(0, &missing));

  // Insert enough to force several growths; keep every returned pointer.
  std::vector<const Value*> handles;
  for (RowId r = 0; r < 500; ++r) {
    handles.push_back(cache.Insert(r, Value(int64_t(r) * 3)));
  }
  cache.InsertFailure(1000);
  EXPECT_EQ(cache.size(), 501u);

  for (RowId r = 0; r < 500; ++r) {
    const Value* v = nullptr;
    ASSERT_TRUE(cache.Find(r, &v));
    EXPECT_EQ(v, handles[r]);  // stable across growth
    EXPECT_EQ(v->AsInt(), int64_t(r) * 3);
  }
  const Value* failed = reinterpret_cast<const Value*>(0x1);
  ASSERT_TRUE(cache.Find(1000, &failed));
  EXPECT_EQ(failed, nullptr);  // remembered failure
  EXPECT_FALSE(cache.Find(501, &failed));
}

TEST(JoinPathResolverTest, SharesCachesByPathAndMatchesDirectEvaluation) {
  testing::CustInfoDb fixture = testing::MakeCustInfoDb();
  const Database& db = *fixture.db;
  const Schema& schema = db.schema();
  const TableId trade = schema.FindTable("TRADE").value();
  const TableId customer = schema.FindTable("CUSTOMER").value();
  const ColumnIdx c_id = schema.table(customer).FindColumn("C_ID").value();

  // TRADE -> CUSTOMER_ACCOUNT -> CUSTOMER.C_ID (fk registration order of
  // the fixture: 0 = CA->C, 1 = TRADE->CA, 2 = HS->CA).
  JoinPath to_customer{trade, {1, 0}, ColumnRef{customer, c_id}};
  ASSERT_TRUE(to_customer.Validate(schema).ok());

  JoinPathResolver resolver(fixture.db.get());
  JoinPathResolver::PathCache* cache = resolver.Cache(to_customer);
  // Same path again: same cache. A different path: a different cache.
  EXPECT_EQ(resolver.Cache(to_customer), cache);
  JoinPath to_ca_c_id{trade,
                      {1},
                      ColumnRef{schema.FindTable("CUSTOMER_ACCOUNT").value(),
                                schema.table(schema.FindTable("CUSTOMER_ACCOUNT").value())
                                    .FindColumn("CA_C_ID")
                                    .value()}};
  EXPECT_NE(resolver.Cache(to_ca_c_id), cache);
  EXPECT_EQ(resolver.num_paths(), 2u);

  for (TupleId t : fixture.trades) {
    const Value* v = cache->Resolve(t.row);
    ASSERT_NE(v, nullptr);
    Result<Value> direct = to_customer.Evaluate(db, t);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*v, direct.value());
    // Second resolve: cached, same handle.
    EXPECT_EQ(cache->Resolve(t.row), v);
  }
  EXPECT_EQ(cache->resolved(), fixture.trades.size());
}

// ---- Evaluator ------------------------------------------------------------

void ExpectEvalEqual(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.total_txns, b.total_txns);
  EXPECT_EQ(a.distributed_txns, b.distributed_txns);
  EXPECT_EQ(a.partitions_touched, b.partitions_touched);
  EXPECT_EQ(a.class_total, b.class_total);
  EXPECT_EQ(a.class_distributed, b.class_distributed);
  EXPECT_EQ(a.partition_load, b.partition_load);
}

void CheckEvaluateParity(const WorkloadBundle& bundle) {
  DatabaseSolution solution = MakeNaiveHashSolution(*bundle.db, 8);
  FlatTrace flat = FlatTrace::FromTrace(bundle.trace);

  EvalResult legacy = Evaluate(*bundle.db, solution, bundle.trace);
  EvalResult columnar = Evaluate(*bundle.db, solution, flat);
  ExpectEvalEqual(columnar, legacy);

  for (int threads : {4, 8}) {
    ThreadPool pool(threads);
    ExpectEvalEqual(Evaluate(*bundle.db, solution, flat, &pool), legacy);
  }

  // View evaluation: per-class results must match evaluating the legacy
  // per-class trace (same accounting, just without the copy).
  TraceView all(&flat);
  for (uint32_t cls = 0; cls < bundle.trace.num_classes(); ++cls) {
    Trace legacy_cls = bundle.trace.FilterClass(cls);
    EvalResult want = Evaluate(*bundle.db, solution, legacy_cls);
    EvalResult got = Evaluate(*bundle.db, solution, all.FilterClass(cls));
    // The legacy FilterClass re-interns only the touched classes' names but
    // keeps ids, so compare the aggregate counters rather than the vectors.
    EXPECT_EQ(got.total_txns, want.total_txns);
    EXPECT_EQ(got.distributed_txns, want.distributed_txns);
    EXPECT_EQ(got.partitions_touched, want.partitions_touched);
    EXPECT_EQ(got.partition_load, want.partition_load);
  }
}

TEST(FlatEvaluateTest, TpccParityAcrossThreadCounts) {
  CheckEvaluateParity(TpccWorkload().Make(5000, 11));
}

TEST(FlatEvaluateTest, TatpParityAcrossThreadCounts) {
  CheckEvaluateParity(TatpWorkload().Make(5000, 12));
}

TEST(FlatEvaluateTest, SyntheticParityAcrossThreadCounts) {
  CheckEvaluateParity(SyntheticWorkload().Make(5000, 13));
}

}  // namespace
}  // namespace jecb
