#include "partition/evaluator.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"

namespace jecb {

double EvalResult::LoadSkew() const {
  if (partition_load.empty()) return 0.0;
  double mean = 0.0;
  for (uint64_t v : partition_load) mean += static_cast<double>(v);
  mean /= static_cast<double>(partition_load.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (uint64_t v : partition_load) {
    double d = static_cast<double>(v) - mean;
    var += d * d;
  }
  var /= static_cast<double>(partition_load.size());
  return std::sqrt(var) / mean;
}

void EvalResult::Merge(const EvalResult& other) {
  total_txns += other.total_txns;
  distributed_txns += other.distributed_txns;
  partitions_touched += other.partitions_touched;
  auto merge_vec = [](std::vector<uint64_t>* into, const std::vector<uint64_t>& from) {
    if (into->size() < from.size()) into->resize(from.size(), 0);
    for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  };
  merge_vec(&class_total, other.class_total);
  merge_vec(&class_distributed, other.class_distributed);
  merge_vec(&partition_load, other.partition_load);
}

void EvalResult::Subtract(const EvalResult& other) {
  total_txns -= other.total_txns;
  distributed_txns -= other.distributed_txns;
  partitions_touched -= other.partitions_touched;
  auto sub_vec = [](std::vector<uint64_t>* from, const std::vector<uint64_t>& what) {
    for (size_t i = 0; i < what.size() && i < from->size(); ++i) {
      (*from)[i] -= what[i];
    }
  };
  sub_vec(&class_total, other.class_total);
  sub_vec(&class_distributed, other.class_distributed);
  sub_vec(&partition_load, other.partition_load);
}

namespace {

/// Spill-aware IsDistributed core. `spill` is caller-provided scratch for
/// the rare >8-distinct-partition tail (naive-hash solutions at high k) so
/// the per-transaction hot path never constructs a heap vector: the
/// evaluator loops thread one buffer through every call of a range.
bool IsDistributedImpl(const Database& db, const DatabaseSolution& solution,
                       const Transaction& txn, std::vector<int32_t>* touched,
                       std::vector<int32_t>& spill) {
  // Small inline buffer of distinct partitions; nearly every transaction
  // touches few partitions. Beyond 8 distinct partitions the tail spills to
  // `spill` so `touched` stays complete and load counts stay exact.
  int32_t parts[8];
  size_t nparts = 0;
  spill.clear();
  bool writes_replicated = false;
  auto seen = [&](int32_t p) {
    for (size_t i = 0; i < nparts; ++i) {
      if (parts[i] == p) return true;
    }
    return std::find(spill.begin(), spill.end(), p) != spill.end();
  };
  for (const Access& a : txn.accesses) {
    int32_t p = solution.PartitionOf(db, a.tuple);
    if (p == kReplicated) {
      if (a.write) writes_replicated = true;
      continue;  // replicated reads are local everywhere
    }
    if (seen(p)) continue;
    if (nparts < std::size(parts)) {
      parts[nparts++] = p;
    } else {
      spill.push_back(p);
    }
  }
  if (touched != nullptr) {
    touched->assign(parts, parts + nparts);
    touched->insert(touched->end(), spill.begin(), spill.end());
  }
  return writes_replicated || nparts + spill.size() > 1;
}

}  // namespace

bool IsDistributed(const Database& db, const DatabaseSolution& solution,
                   const Transaction& txn, std::vector<int32_t>* touched) {
  std::vector<int32_t> spill;
  return IsDistributedImpl(db, solution, txn, touched, spill);
}

namespace {

/// Serial evaluation of the half-open transaction range [begin, end).
EvalResult EvaluateRange(const Database& db, const DatabaseSolution& solution,
                         const Trace& trace, size_t begin, size_t end) {
  EvalResult out;
  out.class_total.assign(trace.num_classes(), 0);
  out.class_distributed.assign(trace.num_classes(), 0);
  out.partition_load.assign(std::max(solution.num_partitions(), 1), 0);

  const std::vector<Transaction>& txns = trace.transactions();
  std::vector<int32_t> touched;
  std::vector<int32_t> spill;  // shared scratch for the rare >8-partition tail
  for (size_t i = begin; i < end; ++i) {
    const Transaction& txn = txns[i];
    bool dist = IsDistributedImpl(db, solution, txn, &touched, spill);
    ++out.total_txns;
    ++out.class_total[txn.class_id];
    if (dist) {
      ++out.distributed_txns;
      ++out.class_distributed[txn.class_id];
      out.partitions_touched += touched.size();
    }
    for (int32_t p : touched) {
      if (p >= 0 && p < static_cast<int32_t>(out.partition_load.size())) {
        ++out.partition_load[p];
      }
    }
  }
  return out;
}

}  // namespace

double CoordinationExposure(const EvalResult& result,
                            double per_participant_rate) {
  if (result.total_txns == 0 || result.distributed_txns == 0 ||
      per_participant_rate <= 0.0) {
    return 0.0;
  }
  const double rate = std::min(per_participant_rate, 1.0);
  const double avg_participants =
      static_cast<double>(result.partitions_touched) /
      static_cast<double>(result.distributed_txns);
  // P(at least one participant faults) for the average distributed txn.
  const double per_txn = 1.0 - std::pow(1.0 - rate, avg_participants);
  return result.cost() * per_txn;
}

/// Resolve-once pass: the partition of every tuple of the dictionary, into a
/// flat array indexed by PackedAccess::tuple_index(). The dictionary holds
/// each tuple once, so a per-tuple memo could never hit here: slots go
/// through the memo-free TablePartitioner::Resolve. Each slot is written by
/// exactly one chunk and the value is a pure function of the tuple, so the
/// array's contents never depend on thread count.
std::vector<int32_t> ResolvePartitions(const Database& db,
                                       const DatabaseSolution& solution,
                                       const FlatTrace& trace, ThreadPool* pool) {
  const size_t n = trace.num_tuples();
  std::vector<int32_t> part(n);
  auto resolve_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      part[i] = solution.Resolve(db, trace.tuple(static_cast<uint32_t>(i)));
    }
  };
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2) {
    resolve_range(0, n);
    return part;
  }
  const size_t num_chunks =
      std::min(n, static_cast<size_t>(pool->num_threads()) * 4);
  const size_t chunk_size = (n + num_chunks - 1) / num_chunks;
  ParallelFor(
      pool, num_chunks,
      [&](size_t c) {
        size_t begin = c * chunk_size;
        resolve_range(begin, std::min(n, begin + chunk_size));
      },
      "eval.resolve");
  return part;
}

EvalResult ScanPartitionRange(const TraceView& view, std::span<const int32_t> part,
                              size_t num_classes, int32_t num_partitions,
                              size_t begin, size_t end) {
  EvalResult out;
  out.class_total.assign(num_classes, 0);
  out.class_distributed.assign(num_classes, 0);
  out.partition_load.assign(std::max(num_partitions, 1), 0);

  // Same inline-buffer-plus-heap-spill dedupe as IsDistributedImpl, over
  // the resolved array instead of per-access PartitionOf calls.
  const FlatTrace& trace = view.trace();
  int32_t parts[8];
  std::vector<int32_t> spill;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t txn = view.txn(i);
    size_t nparts = 0;
    bool writes_replicated = false;
    spill.clear();
    for (const PackedAccess a : trace.accesses(txn)) {
      const int32_t p = part[a.tuple_index()];
      if (p == kReplicated) {
        if (a.write()) writes_replicated = true;
        continue;  // replicated reads are local everywhere
      }
      if (std::find(parts, parts + nparts, p) != parts + nparts ||
          std::find(spill.begin(), spill.end(), p) != spill.end()) {
        continue;
      }
      if (nparts < std::size(parts)) {
        parts[nparts++] = p;
      } else {
        spill.push_back(p);
      }
    }
    const size_t distinct = nparts + spill.size();
    const uint32_t cls = trace.class_of(txn);
    ++out.total_txns;
    ++out.class_total[cls];
    if (writes_replicated || distinct > 1) {
      ++out.distributed_txns;
      ++out.class_distributed[cls];
      out.partitions_touched += distinct;
    }
    auto count_load = [&](int32_t p) {
      if (p >= 0 && p < static_cast<int32_t>(out.partition_load.size())) {
        ++out.partition_load[p];
      }
    };
    for (size_t j = 0; j < nparts; ++j) count_load(parts[j]);
    for (int32_t p : spill) count_load(p);
  }
  MetricsRegistry::Default().AddCounter("jecb_scan_scalar_txns_total", end - begin);
  return out;
}

EvalResult EvaluateWithPartitions(const TraceView& view,
                                  std::span<const int32_t> part,
                                  int32_t num_partitions, ThreadPool* pool) {
  const size_t n = view.size();
  const size_t num_classes = view.trace().num_classes();
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2) {
    return ScanPartitionRange(view, part, num_classes, num_partitions, 0, n);
  }

  // Chunked exactly like the Trace overload: same chunk count, same
  // contiguous ranges, merged in chunk-index order.
  const size_t num_chunks =
      std::min(n, static_cast<size_t>(pool->num_threads()) * 4);
  const size_t chunk_size = (n + num_chunks - 1) / num_chunks;
  std::vector<EvalResult> partial(num_chunks);
  ParallelFor(
      pool, num_chunks,
      [&](size_t c) {
        size_t begin = c * chunk_size;
        size_t end = std::min(n, begin + chunk_size);
        partial[c] = ScanPartitionRange(view, part, num_classes, num_partitions,
                                        begin, end);
      },
      "eval.chunks");

  EvalResult out;
  out.class_total.assign(num_classes, 0);
  out.class_distributed.assign(num_classes, 0);
  out.partition_load.assign(std::max(num_partitions, 1), 0);
  for (const EvalResult& p : partial) out.Merge(p);
  return out;
}

EvalResult Evaluate(const Database& db, const DatabaseSolution& solution,
                    const TraceView& view, ThreadPool* pool) {
  const size_t n = view.size();
  JECB_SPAN1("eval", "evaluate.flat", "txns", static_cast<int64_t>(n));
  const std::vector<int32_t> part =
      ResolvePartitions(db, solution, view.trace(), pool);
  return EvaluateWithPartitions(view, part, solution.num_partitions(), pool);
}

EvalResult Evaluate(const Database& db, const DatabaseSolution& solution,
                    const FlatTrace& trace, ThreadPool* pool) {
  return Evaluate(db, solution, TraceView(&trace), pool);
}

EvalResult Evaluate(const Database& db, const DatabaseSolution& solution,
                    const Trace& trace, ThreadPool* pool) {
  const size_t n = trace.size();
  JECB_SPAN1("eval", "evaluate", "txns", static_cast<int64_t>(n));
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2) {
    return EvaluateRange(db, solution, trace, 0, n);
  }

  // Oversplit relative to the worker count so a straggler chunk (hot memo
  // misses) cannot serialize the pass; merge order is by chunk index.
  const size_t num_chunks =
      std::min(n, static_cast<size_t>(pool->num_threads()) * 4);
  const size_t chunk_size = (n + num_chunks - 1) / num_chunks;
  std::vector<EvalResult> partial(num_chunks);
  ParallelFor(
      pool, num_chunks,
      [&](size_t c) {
        size_t begin = c * chunk_size;
        size_t end = std::min(n, begin + chunk_size);
        partial[c] = EvaluateRange(db, solution, trace, begin, end);
      },
      "eval.chunks");

  EvalResult out;
  out.class_total.assign(trace.num_classes(), 0);
  out.class_distributed.assign(trace.num_classes(), 0);
  out.partition_load.assign(std::max(solution.num_partitions(), 1), 0);
  for (const EvalResult& p : partial) out.Merge(p);
  return out;
}

}  // namespace jecb
