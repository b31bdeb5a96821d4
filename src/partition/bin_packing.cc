#include "partition/bin_packing.h"

#include <algorithm>
#include <numeric>

namespace jecb {

std::vector<int32_t> PackPartitionsByHeat(const std::vector<uint64_t>& heats,
                                          int32_t num_nodes) {
  std::vector<size_t> order(heats.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return heats[a] > heats[b]; });
  std::vector<int32_t> packing(heats.size(), 0);
  std::vector<uint64_t> load(std::max(num_nodes, 1), 0);
  for (size_t p : order) {
    auto node = static_cast<int32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    packing[p] = node;
    load[node] += heats[p];
  }
  return packing;
}

std::vector<uint64_t> NodeLoads(const std::vector<uint64_t>& heats,
                                const std::vector<int32_t>& packing,
                                int32_t num_nodes) {
  std::vector<uint64_t> load(std::max(num_nodes, 1), 0);
  for (size_t p = 0; p < heats.size(); ++p) load[packing[p]] += heats[p];
  return load;
}

namespace {

/// Table partitioner adapter: inner micro-partition remapped to a node.
class RemappedPartitioner : public TablePartitioner {
 public:
  RemappedPartitioner(std::shared_ptr<const TablePartitioner> inner,
                      std::shared_ptr<const std::vector<int32_t>> packing)
      : inner_(std::move(inner)), packing_(std::move(packing)) {}

  int32_t Resolve(const Database& db, TupleId tuple) const override {
    return Remap(inner_->Resolve(db, tuple));
  }
  int32_t PartitionOf(const Database& db, TupleId tuple) const override {
    return Remap(inner_->PartitionOf(db, tuple));
  }

  std::string Describe(const Schema& schema) const override {
    return inner_->Describe(schema) + " packed onto nodes";
  }

 private:
  int32_t Remap(int32_t p) const {
    if (p < 0) return p;  // replicated / unknown pass through
    if (static_cast<size_t>(p) >= packing_->size()) return kUnknownPartition;
    return (*packing_)[p];
  }

  std::shared_ptr<const TablePartitioner> inner_;
  std::shared_ptr<const std::vector<int32_t>> packing_;
};

}  // namespace

DatabaseSolution MapPartitionsToNodes(const DatabaseSolution& micro,
                                      const std::vector<int32_t>& packing,
                                      int32_t num_nodes) {
  DatabaseSolution out(num_nodes, micro.num_tables());
  auto shared_packing = std::make_shared<const std::vector<int32_t>>(packing);
  for (size_t t = 0; t < micro.num_tables(); ++t) {
    auto inner = micro.GetShared(static_cast<TableId>(t));
    if (inner == nullptr) continue;
    out.Set(static_cast<TableId>(t),
            std::make_shared<RemappedPartitioner>(std::move(inner), shared_packing));
  }
  return out;
}

DatabaseSolution PackSolution(const Database& db, const DatabaseSolution& micro,
                              const Trace& trace, int32_t num_nodes,
                              std::vector<int32_t>* packing_out) {
  EvalResult heat = Evaluate(db, micro, trace);
  std::vector<int32_t> packing = PackPartitionsByHeat(heat.partition_load, num_nodes);
  if (packing_out != nullptr) *packing_out = packing;
  return MapPartitionsToNodes(micro, packing, num_nodes);
}

}  // namespace jecb
