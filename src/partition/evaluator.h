// Cost evaluation (paper Definitions 5 and 6): a transaction is distributed
// when it writes a replicated tuple or touches tuples in more than one
// partition; the cost of a solution on a workload is the fraction of
// distributed transactions. The evaluator also reports per-class costs
// (Figs. 8/9) and partitions-touched / skew statistics (Horticulture's cost
// model inputs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "partition/solution.h"
#include "trace/flat_trace.h"
#include "trace/trace.h"

namespace jecb {

/// Result of evaluating one solution against one trace.
struct EvalResult {
  uint64_t total_txns = 0;
  uint64_t distributed_txns = 0;

  /// Indexed by class id of the evaluated trace.
  std::vector<uint64_t> class_total;
  std::vector<uint64_t> class_distributed;

  /// Sum over distributed transactions of the number of partitions touched.
  uint64_t partitions_touched = 0;
  /// Per-partition transaction participation counts (skew input).
  std::vector<uint64_t> partition_load;

  double cost() const {
    return total_txns == 0 ? 0.0
                           : static_cast<double>(distributed_txns) /
                                 static_cast<double>(total_txns);
  }
  /// Cost of one class; ids beyond the evaluated trace's class count (e.g.
  /// a class that never occurred) are 0, not UB.
  double class_cost(uint32_t cls) const {
    if (cls >= class_total.size() || class_total[cls] == 0) return 0.0;
    return static_cast<double>(class_distributed[cls]) /
           static_cast<double>(class_total[cls]);
  }
  uint64_t class_total_of(uint32_t cls) const {
    return cls < class_total.size() ? class_total[cls] : 0;
  }
  uint64_t class_distributed_of(uint32_t cls) const {
    return cls < class_distributed.size() ? class_distributed[cls] : 0;
  }

  /// Coefficient of variation of partition_load; 0 = perfectly balanced.
  double LoadSkew() const;

  /// Accumulates `other` into this result (element-wise sums; vectors grow
  /// to the longer length). Every field is an integer count, so merging is
  /// exact and order-independent — the parallel evaluator still merges in
  /// chunk-index order to keep the contract auditable.
  void Merge(const EvalResult& other);

  /// Removes `other`'s contribution: the exact inverse of Merge (integer
  /// counters subtract without rounding, so Merge(x) followed by Subtract(x)
  /// restores this result bit for bit). `other` must be a sub-workload of
  /// this result — its counters element-wise <= ours and its vectors no
  /// longer; vector sizes here are unchanged. This is what makes delta
  /// evaluation reversible: base - base_contribution + new_contribution.
  void Subtract(const EvalResult& other);

  /// Bit-exact comparison — every field is an integer, so "equal" is
  /// well-defined and is the identity the delta path is held to.
  bool operator==(const EvalResult&) const = default;
};

/// Classifies a single transaction under `solution`; returns true when
/// distributed. `touched` (optional) receives the distinct partitions.
bool IsDistributed(const Database& db, const DatabaseSolution& solution,
                   const Transaction& txn, std::vector<int32_t>* touched = nullptr);

/// First-order analytic exposure of a workload to per-participant
/// coordination faults: the expected fraction of transactions that are
/// distributed AND draw at least one fault during prepare, when each
/// participant independently faults with probability `per_participant_rate`
/// (the FaultPlan convention — see runtime/fault_injector.h). Uses the
/// average participant count `partitions_touched / distributed_txns`, so it
/// shares the same Definition 5/6 classification the runtime's fault
/// injector targets. This is the quantity bench/fault_tolerance checks the
/// measured abort exposure against: fewer distributed transactions means
/// strictly less exposure at any fault rate.
double CoordinationExposure(const EvalResult& result,
                            double per_participant_rate);

/// Evaluates `solution` over every transaction of `trace`.
///
/// With a pool of more than one worker the trace is split into fixed
/// contiguous chunks, each chunk accumulates into its own EvalResult, and
/// the per-chunk results are merged in chunk-index order — bit-identical to
/// the serial pass at any thread count (all counters are integers). A null
/// pool or single-worker pool runs the exact serial path.
EvalResult Evaluate(const Database& db, const DatabaseSolution& solution,
                    const Trace& trace, ThreadPool* pool = nullptr);

/// Columnar resolve-once evaluation. Each distinct tuple of the trace's
/// dictionary is resolved exactly once (TablePartitioner::Resolve, no memo,
/// into a flat int32 array, in parallel chunks), then the per-transaction
/// accounting runs as a branch-light scan over the SoA access arrays —
/// chunked and merged exactly like the Trace overload. Because a tuple's
/// partition is a pure function of the tuple, every EvalResult field is
/// bit-identical to the row-oriented path at any thread count.
EvalResult Evaluate(const Database& db, const DatabaseSolution& solution,
                    const FlatTrace& trace, ThreadPool* pool = nullptr);

/// Same, over a zero-copy view. The resolve pass covers the underlying
/// trace's whole dictionary (results only depend on the tuples the view
/// touches, so this is exact; it only does extra resolution work when the
/// view is much smaller than its trace).
EvalResult Evaluate(const Database& db, const DatabaseSolution& solution,
                    const TraceView& view, ThreadPool* pool = nullptr);

/// The resolve pass of the columnar evaluator, exposed for callers that
/// reuse the array across many scans (the delta evaluator): the memo-free
/// DatabaseSolution::Resolve of every tuple of the trace's dictionary,
/// indexed by PackedAccess::tuple_index(), equal slot for slot to
/// PartitionOf. Each slot is a pure function of its tuple, so the contents
/// never depend on thread count.
std::vector<int32_t> ResolvePartitions(const Database& db,
                                       const DatabaseSolution& solution,
                                       const FlatTrace& trace,
                                       ThreadPool* pool = nullptr);

/// The scan half of the columnar evaluator against an externally resolved
/// partition array (`part` must cover the view's whole dictionary):
/// chunked into the same contiguous ranges and merged in the same chunk
/// order as Evaluate, so Evaluate(view) == EvaluateWithPartitions(view,
/// ResolvePartitions(...)) bit for bit at any thread count.
EvalResult EvaluateWithPartitions(const TraceView& view,
                                  std::span<const int32_t> part,
                                  int32_t num_partitions,
                                  ThreadPool* pool = nullptr);

/// The serial scan under EvaluateWithPartitions: the Definition 5/6
/// accounting of exactly the view's transactions at positions [begin, end),
/// against `part` (indexed by PackedAccess::tuple_index(), covering the
/// view's whole dictionary). Thread-safe (read-only inputs, per-call
/// scratch).
EvalResult ScanPartitionRange(const TraceView& view, std::span<const int32_t> part,
                              size_t num_classes, int32_t num_partitions,
                              size_t begin, size_t end);

}  // namespace jecb
