// Phase 2 (paper Sec. 5): partition one transaction class. Enumerates join
// trees (Sec. 5.2), tests mapping independence on the class trace
// (Definition 7), eliminates coarser compatible trees (Property 1), and
// falls back — in order — to:
//   1. exact mapping-independent solutions (any mapping function works);
//   2. epsilon-quasi-independent solutions: at most `quasi_tolerance` of the
//      class's transactions map to multiple root values (captures TPC-C's
//      inherent ~1%/15% remote accesses, where the optimal warehouse
//      partitioning exists but Definition 7 is violated by design);
//   3. the statistics-based method of Sec. 5.3: min-cut over the co-access
//      graph of root values, kept only when it beats both hash and range on
//      a held-out part of the trace ("meaningful"); a range mapping below
//      the quasi tolerance is also accepted (date-window locality).
// Classes with no solution are non-partitionable.
#pragma once

#include <string>

#include "jecb/attr_lattice.h"
#include "jecb/join_graph.h"
#include "jecb/tree_enum.h"
#include "jecb/types.h"
#include "partition/join_path_resolver.h"
#include "trace/flat_trace.h"

namespace jecb {

/// Internal trace-scan state of one class (defined in the .cc).
class FlatScan;

struct ClassPartitionerOptions {
  int32_t num_partitions = 8;
  /// Tier-2 threshold: accept a tree whose violation fraction is at most
  /// this. 0 disables tier 2 (strict Definition 7 only).
  double quasi_tolerance = 0.25;
  bool enable_partial_solutions = true;
  bool enable_stats_fallback = true;
  bool enable_range_quasi = true;
  /// Fraction of the class trace held out to validate fallback mappings.
  double holdout_fraction = 0.3;
  /// Transactions touching more root values than this are skipped when
  /// building the statistics co-access graph.
  size_t max_values_per_txn = 16;
  TreeEnumOptions tree_enum;
  uint64_t seed = 7;
};

/// Violation statistics of one join tree against a class trace.
struct TreeFit {
  uint64_t txns = 0;
  uint64_t violations = 0;  // txns mapping to >1 root value (or eval failure)
  double violation_fraction() const {
    return txns == 0 ? 0.0
                     : static_cast<double>(violations) / static_cast<double>(txns);
  }
};

/// Measures Definition 7 over `view` for `tree`, counting only accesses to
/// tables the tree covers: the plain reference scan. `resolver` memoizes
/// every join-path resolution so repeated calls never re-extend a tuple
/// already seen. Phase 2 itself measures fits with a faster, exactly
/// equivalent scan (class_partitioner.cc).
TreeFit MeasureTreeFit(const Database& db, const JoinTree& tree,
                       const TraceView& view, JoinPathResolver* resolver);

/// True when `a` is coarser than `b` (Definition 9): same per-table hop
/// prefixes and a root that is coarser (or an equal-granularity root reached
/// through strictly longer paths).
bool IsCoarserTree(const AttributeLattice& lattice, const JoinTree& a,
                   const JoinTree& b);

class ClassPartitioner {
 public:
  ClassPartitioner(const Database* db, const AttributeLattice* lattice,
                   ClassPartitionerOptions options)
      : db_(db), lattice_(lattice), options_(std::move(options)) {}

  /// Runs Phase 2 for one class over a zero-copy view of the shared
  /// FlatTrace; `class_view` must contain only this class's transactions.
  /// `resolver` carries the class's join-path resolution cache across every
  /// enumerated tree and every metric (fit measuring, mapping costing,
  /// statistics fallback), so each distinct tuple is join-extended once per
  /// distinct path instead of once per tree per metric.
  ClassPartitioningResult Partition(const JoinGraph& graph, const TraceView& class_view,
                                    JoinPathResolver* resolver,
                                    const std::string& name, uint32_t class_id,
                                    double mix_fraction) const;

 private:
  /// Solutions over a (sub)graph; `cover` lists the partitioned tables a
  /// solution must span to count as total for this (sub)graph.
  std::vector<ClassSolution> SolveGraph(const JoinGraph& graph, FlatScan& scan,
                                        bool as_total, int depth) const;

  /// Tier 3: statistics fallback for one tree.
  Result<ClassSolution> StatsFallback(const JoinTree& tree, FlatScan& scan) const;

  const Schema& schema() const { return db_->schema(); }

  const Database* db_;
  const AttributeLattice* lattice_;
  ClassPartitionerOptions options_;
};

}  // namespace jecb
