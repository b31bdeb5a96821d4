// Oracles of the benchmark, computed by paths that do not go through the
// code under test: the distributed-transaction count is recounted from the
// solution's per-tuple PartitionOf with a plain loop (paper Definitions 5
// and 6), and the exchange totals a replay must report are rebuilt from
// read sets materialized out of the source Database, never from the shard
// store or the wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/replay.h"
#include "partition/solution.h"
#include "storage/database.h"
#include "trace/trace.h"

namespace perfbench {

/// Definition 5/6 recount of one trace under one solution.
struct Recount {
  uint64_t total = 0;
  uint64_t distributed = 0;
  /// Accesses whose tuple maps neither to [0, k) nor to replication.
  uint64_t unmapped_accesses = 0;
  /// Per transaction, in trace order.
  std::vector<bool> is_distributed;
};

/// A transaction is distributed when its non-replicated tuples span more
/// than one partition, or when it writes a replicated tuple.
Recount RecountDistributed(const jecb::Database& db,
                           const jecb::DatabaseSolution& solution,
                           const jecb::Trace& trace);

/// Exchange totals a replay of `trace` must report: committed distributed
/// transactions assemble their read sets, so the tuple count is the sum of
/// their ExchangeReadSet sizes and the digest the (wrapping) sum of their
/// ExchangePayloadDigest, keyed by the transaction's index in the trace.
struct ExpectedExchange {
  uint64_t tuples = 0;
  uint64_t digest = 0;
};

ExpectedExchange ExpectExchange(const jecb::Database& db, const jecb::Trace& trace,
                                const std::vector<bool>& is_distributed);

/// Everything one replay of `recount`'s trace on `shards` shards must
/// satisfy. Returns one line per violated check; empty means the replay
/// passed.
std::vector<std::string> CheckReplay(const jecb::ReplayReport& report,
                                     const Recount& recount,
                                     const ExpectedExchange& exchange,
                                     int32_t shards);

}  // namespace perfbench
