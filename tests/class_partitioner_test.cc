#include <gtest/gtest.h>

#include "jecb/class_partitioner.h"
#include "partition/join_path_resolver.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "trace/flat_trace.h"

namespace jecb {
namespace {

/// Runs Phase 2 for one class over the flattened `trace` (all of whose
/// transactions belong to the class), with a fresh join-path resolver.
ClassPartitioningResult PartitionTrace(const Database* db,
                                       const ClassPartitioner& partitioner,
                                       const JoinGraph& graph, const Trace& trace,
                                       const std::string& name) {
  const FlatTrace flat = FlatTrace::FromTrace(trace);
  JoinPathResolver resolver(db);
  return partitioner.Partition(graph, TraceView(&flat), &resolver, name, 0, 1.0);
}

class ClassPartitionerTest : public ::testing::Test {
 protected:
  ClassPartitionerTest() : fixture_(testing::MakeCustInfoDb()) {
    Schema& s = fixture_.db->mutable_schema();
    s.mutable_table(s.FindTable("CUSTOMER").value()).access_class =
        AccessClass::kReadOnly;
    lattice_ = std::make_unique<AttributeLattice>(&fixture_.db->schema());
    auto proc = sql::ParseProcedure(testing::CustInfoSql());
    auto info = sql::AnalyzeProcedure(fixture_.db->schema(), proc.value());
    CheckOk(info.status(), "fixture");
    graph_ = BuildJoinGraph(fixture_.db->schema(), info.value());
  }

  ClassPartitioningResult Partition(const JoinGraph& graph, const Trace& trace,
                                    const std::string& name,
                                    ClassPartitionerOptions opt = {}) {
    opt.num_partitions = 2;
    ClassPartitioner partitioner(fixture_.db.get(), lattice_.get(), opt);
    return PartitionTrace(fixture_.db.get(), partitioner, graph, trace, name);
  }

  const Schema& schema() const { return fixture_.db->schema(); }
  ColumnRef Ref(const char* q) const { return schema().ResolveQualified(q).value(); }

  testing::CustInfoDb fixture_;
  std::unique_ptr<AttributeLattice> lattice_;
  JoinGraph graph_;
};

TEST_F(ClassPartitionerTest, CustInfoIsMappingIndependentOnCaCid) {
  Trace trace = testing::MakeCustInfoTrace(fixture_);
  auto result = Partition(graph_, trace, "CustInfo");
  ASSERT_EQ(result.total_solutions.size(), 1u);
  const ClassSolution& sol = result.total_solutions[0];
  EXPECT_EQ(sol.tier, SolutionTier::kMappingIndependent);
  EXPECT_TRUE(sol.total);
  // The CA_ID-rooted tree is NOT mapping independent (two accounts per
  // customer), so the surviving root must be the CA_C_ID granularity.
  EXPECT_TRUE(lattice_->Equivalent(sol.tree.root, Ref("CUSTOMER_ACCOUNT.CA_C_ID")));
  EXPECT_EQ(sol.tree.paths.size(), 3u);
  EXPECT_FALSE(result.read_only);
}

TEST_F(ClassPartitionerTest, MeasureTreeFitDetectsViolations) {
  // Tree rooted at CA_ID: CustInfo transactions touch two accounts each.
  JoinTree tree;
  tree.root = Ref("CUSTOMER_ACCOUNT.CA_ID");
  JoinPath ca;
  ca.source_table = schema().FindTable("CUSTOMER_ACCOUNT").value();
  ca.dest = tree.root;
  tree.paths[ca.source_table] = ca;
  Trace trace = testing::MakeCustInfoTrace(fixture_);
  const FlatTrace flat = FlatTrace::FromTrace(trace);
  JoinPathResolver resolver(fixture_.db.get());
  TreeFit fit = MeasureTreeFit(*fixture_.db, tree, TraceView(&flat), &resolver);
  EXPECT_EQ(fit.txns, trace.size());
  EXPECT_EQ(fit.violations, trace.size());

  // Rooted at CA_C_ID instead: no violations.
  tree.root = Ref("CUSTOMER_ACCOUNT.CA_C_ID");
  tree.paths[ca.source_table].dest = tree.root;
  fit = MeasureTreeFit(*fixture_.db, tree, TraceView(&flat), &resolver);
  EXPECT_EQ(fit.violations, 0u);
}

TEST_F(ClassPartitionerTest, QuasiTierAcceptsSmallViolationFraction) {
  Trace trace = testing::MakeCustInfoTrace(fixture_, 10);
  // Poison a few transactions with cross-customer reads.
  for (size_t i = 0; i < 2; ++i) {
    trace.mutable_transactions()[i].Read(fixture_.trades[0]);
    trace.mutable_transactions()[i].Read(fixture_.trades[1]);
  }
  ClassPartitionerOptions opt;
  opt.quasi_tolerance = 0.25;
  auto result = Partition(graph_, trace, "CustInfo", opt);
  ASSERT_EQ(result.total_solutions.size(), 1u);
  EXPECT_EQ(result.total_solutions[0].tier, SolutionTier::kQuasiIndependent);
  EXPECT_GT(result.total_solutions[0].violation_fraction, 0.0);
  EXPECT_LE(result.total_solutions[0].violation_fraction, 0.25);
}

TEST_F(ClassPartitionerTest, DanglingJoinIsAViolation) {
  // A trade whose account does not exist: the CA_C_ID tree cannot resolve
  // it, so a transaction reading it violates Definition 7 even when it is
  // the transaction's only covered access.
  const TupleId dangling =
      fixture_.db->MustInsert("TRADE", {int64_t(99), int64_t(404), int64_t(1)});
  Trace trace = testing::MakeCustInfoTrace(fixture_, 10);
  for (size_t i = 0; i < 2; ++i) {
    trace.mutable_transactions()[i].accesses.clear();
    trace.mutable_transactions()[i].Read(dangling);
  }
  auto result = Partition(graph_, trace, "CustInfo");
  ASSERT_EQ(result.total_solutions.size(), 1u);
  const ClassSolution& sol = result.total_solutions[0];
  EXPECT_EQ(sol.tier, SolutionTier::kQuasiIndependent);

  // Phase 2's fit scan agrees with the reference scan over the train split.
  const FlatTrace flat = FlatTrace::FromTrace(trace);
  const TraceView train =
      TraceView(&flat).SplitTrainTest(ClassPartitionerOptions().holdout_fraction).first;
  JoinPathResolver resolver(fixture_.db.get());
  const TreeFit fit = MeasureTreeFit(*fixture_.db, sol.tree, train, &resolver);
  EXPECT_GT(fit.violations, 0u);
  EXPECT_EQ(sol.violation_fraction, fit.violation_fraction());
}

TEST_F(ClassPartitionerTest, StrictModeRejectsViolations) {
  Trace trace = testing::MakeCustInfoTrace(fixture_, 10);
  for (auto& txn : trace.mutable_transactions()) {
    txn.Read(fixture_.trades[0]);
    txn.Read(fixture_.trades[1]);  // every txn crosses customers
  }
  ClassPartitionerOptions opt;
  opt.quasi_tolerance = 0.0;
  opt.enable_stats_fallback = false;
  auto result = Partition(graph_, trace, "CustInfo", opt);
  EXPECT_TRUE(result.total_solutions.empty());
  EXPECT_FALSE(result.partitionable());
}

TEST(StatsFallbackTest, LearnsHiddenClusters) {
  // A table whose rows are co-accessed in fixed hidden pairs {j, 31-j}: no
  // schema attribute captures the pairing, hash scatters it, range splits
  // it, but the min-cut over co-accessed key values learns it (Sec. 5.3).
  Schema s;
  TableId rows = s.AddTable("ROWS").value();
  CheckOk(s.AddColumn(rows, "R_ID", ValueType::kInt64), "stats");
  CheckOk(s.AddColumn(rows, "R_PAYLOAD", ValueType::kInt64), "stats");
  CheckOk(s.SetPrimaryKey(rows, {"R_ID"}), "stats");
  Database db{std::move(s)};
  std::vector<TupleId> tuples;
  for (int64_t id = 0; id < 32; ++id) {
    tuples.push_back(db.MustInsert("ROWS", {id, id * 10}));
  }
  Trace trace;
  uint32_t cls = trace.InternClass("Paired");
  for (int rep = 0; rep < 30; ++rep) {
    for (int64_t j = 0; j < 8; ++j) {
      Transaction txn;
      txn.class_id = cls;
      txn.Read(tuples[j]);
      txn.Read(tuples[31 - j]);
      trace.Add(std::move(txn));
    }
  }
  AttributeLattice lattice(&db.schema());
  ClassPartitionerOptions opt;
  opt.num_partitions = 4;
  opt.quasi_tolerance = 0.0;
  ClassPartitioner partitioner(&db, &lattice, opt);
  JoinGraph graph;
  graph.tables = {rows};
  graph.partitioned_tables = {rows};
  graph.candidate_attrs = {ColumnRef{rows, 0}};
  auto result = PartitionTrace(&db, partitioner, graph, trace, "Paired");
  ASSERT_EQ(result.total_solutions.size(), 1u);
  const ClassSolution& sol = result.total_solutions[0];
  EXPECT_EQ(sol.tier, SolutionTier::kStatistics);
  ASSERT_NE(sol.mapping, nullptr);
  EXPECT_EQ(sol.mapping->name(), "lookup");
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_EQ(sol.mapping->Map(Value(j)), sol.mapping->Map(Value(31 - j)))
        << "pair " << j;
  }
  EXPECT_LT(sol.class_cost, 0.05);
}

TEST_F(ClassPartitionerTest, PartialSolutionsFromSubsets) {
  // Remove HOLDING_SUMMARY's join: HS becomes unreachable, no root exists,
  // and the class splits into components yielding partial solutions.
  JoinGraph g = graph_;
  std::vector<FkIdx> kept;
  TableId hs = schema().FindTable("HOLDING_SUMMARY").value();
  for (FkIdx f : g.active_fks) {
    if (schema().foreign_keys()[f].table != hs) kept.push_back(f);
  }
  g.active_fks = kept;
  Trace trace = testing::MakeCustInfoTrace(fixture_);
  auto result = Partition(g, trace, "CustInfo");
  EXPECT_TRUE(result.total_solutions.empty());
  ASSERT_GE(result.partial_solutions.size(), 2u);
  for (const auto& p : result.partial_solutions) {
    EXPECT_FALSE(p.total);
  }
}

TEST_F(ClassPartitionerTest, ReadOnlyClassFlagged) {
  JoinGraph empty;
  TableId cust = schema().FindTable("CUSTOMER").value();
  empty.tables = {cust};
  Trace trace = testing::MakeCustInfoTrace(fixture_);
  auto result = Partition(empty, trace, "RO");
  EXPECT_TRUE(result.read_only);
  EXPECT_FALSE(result.partitionable());
}

TEST_F(ClassPartitionerTest, CoarserTreeEliminated) {
  // Both the CA_C_ID-rooted and the C_TAX_ID-rooted trees would be MI; the
  // coarser (C_TAX_ID) must be eliminated (Example 7). Activate the
  // CA -> CUSTOMER join so C_TAX_ID becomes reachable.
  Schema& s = fixture_.db->mutable_schema();
  s.mutable_table(s.FindTable("CUSTOMER").value()).access_class =
      AccessClass::kReadOnly;
  JoinGraph g = graph_;
  TableId ca = schema().FindTable("CUSTOMER_ACCOUNT").value();
  for (FkIdx f = 0; f < schema().foreign_keys().size(); ++f) {
    if (schema().foreign_keys()[f].table == ca) g.active_fks.push_back(f);
  }
  g.tables.insert(schema().FindTable("CUSTOMER").value());
  g.candidate_attrs.insert(Ref("CUSTOMER.C_TAX_ID"));
  Trace trace = testing::MakeCustInfoTrace(fixture_);
  auto result = Partition(g, trace, "CustInfo");
  ASSERT_EQ(result.total_solutions.size(), 1u);
  // The surviving root must NOT be the coarser C_TAX_ID.
  EXPECT_FALSE(result.total_solutions[0].tree.root == Ref("CUSTOMER.C_TAX_ID"));
}

TEST(SolutionTierTest, Names) {
  EXPECT_EQ(SolutionTierToString(SolutionTier::kMappingIndependent),
            "mapping-independent");
  EXPECT_EQ(SolutionTierToString(SolutionTier::kQuasiIndependent),
            "quasi-independent");
  EXPECT_EQ(SolutionTierToString(SolutionTier::kStatistics), "statistics");
}

}  // namespace
}  // namespace jecb
