#include "oracles.h"

#include <algorithm>

#include "partition/mapping.h"
#include "runtime/exchange.h"

namespace perfbench {

using namespace jecb;

Recount RecountDistributed(const Database& db, const DatabaseSolution& solution,
                           const Trace& trace) {
  Recount out;
  out.total = trace.size();
  out.is_distributed.reserve(trace.size());
  const int32_t k = solution.num_partitions();
  std::vector<int32_t> parts;
  for (const Transaction& txn : trace.transactions()) {
    parts.clear();
    bool writes_replicated = false;
    for (const Access& a : txn.accesses) {
      const int32_t p = solution.PartitionOf(db, a.tuple);
      if (p == kReplicated) {
        writes_replicated = writes_replicated || a.write;
      } else if (p >= 0 && p < k) {
        if (std::find(parts.begin(), parts.end(), p) == parts.end()) {
          parts.push_back(p);
        }
      } else {
        ++out.unmapped_accesses;
      }
    }
    const bool distributed = writes_replicated || parts.size() > 1;
    out.is_distributed.push_back(distributed);
    if (distributed) ++out.distributed;
  }
  return out;
}

ExpectedExchange ExpectExchange(const Database& db, const Trace& trace,
                                const std::vector<bool>& is_distributed) {
  ExpectedExchange out;
  const std::vector<Transaction>& txns = trace.transactions();
  for (size_t i = 0; i < txns.size(); ++i) {
    if (!is_distributed[i]) continue;
    const std::vector<ExchangeEntry> entries =
        MaterializeReads(db, ExchangeReadSet(txns[i]));
    out.tuples += entries.size();
    out.digest += ExchangePayloadDigest(i, entries);
  }
  return out;
}

namespace {

void Expect(std::vector<std::string>* failures, const char* what, uint64_t got,
            uint64_t want) {
  if (got == want) return;
  failures->push_back(std::string(what) + ": got " + std::to_string(got) +
                      ", want " + std::to_string(want));
}

}  // namespace

std::vector<std::string> CheckReplay(const ReplayReport& report,
                                     const Recount& recount,
                                     const ExpectedExchange& exchange,
                                     int32_t shards) {
  std::vector<std::string> failures;
  Expect(&failures, "total_txns", report.total_txns, recount.total);
  Expect(&failures, "committed", report.committed, recount.total);
  Expect(&failures, "failed", report.failed, 0);
  Expect(&failures, "shed", report.shed, 0);
  Expect(&failures, "residency_faults", report.residency_faults, 0);
  Expect(&failures, "distributed_committed", report.distributed_committed,
         recount.distributed);
  Expect(&failures, "exchange_tuples", report.exchange_tuples, exchange.tuples);
  Expect(&failures, "exchange_digest", report.exchange_digest, exchange.digest);
  Expect(&failures, "shard_exits", report.shard_exits.size(),
         static_cast<uint64_t>(shards));
  Expect(&failures, "abnormal_shard_exits", report.abnormal_shard_exits(), 0);
  return failures;
}

}  // namespace perfbench
