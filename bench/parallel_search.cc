// Parallel-pipeline scaling (paper Sec. 7.5 narrative): JECB's advantage
// over LNS-style search is that it finds solutions in seconds — this bench
// measures how far the thread pool pushes that, timing the full
// Jecb::Partition pipeline and a standalone Evaluate() pass at 1/2/4/8
// worker threads on TPC-C and TPC-E traces. Besides wall clock it asserts
// the determinism contract (every thread count must reproduce the
// single-threaded solution, cost, EvalResult and replay OutcomeSignature
// exactly; exit 1 otherwise) and writes the measurements to
// BENCH_parallel_search.json.
//
// After each timed Jecb::Partition call, a second, traced call of the same
// configuration supplies the flatten / Phase 1 / Phase 2 / Phase 3 wall
// seconds (the pipeline's own jecb:* spans) that land in the JSON rows next
// to the end-to-end seconds; the timed call itself is not traced unless
// --trace_out asks for a recording.
//
// Speedup is hardware-dependent: on a single-core container every row
// reports ~1x (the pool adds threads the OS serializes); the JSON records
// hardware_concurrency so readers can interpret the numbers.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "bench_util.h"
#include "dist/replay.h"
#include "workloads/tpcc.h"
#include "workloads/tpce.h"

using namespace jecb;
using namespace jecb::bench;

namespace {

double WallSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Wall seconds of the pipeline stages of one Jecb::Partition call.
struct PhaseSeconds {
  double flatten = 0.0;
  double phase1 = 0.0;
  double phase2 = 0.0;
  double phase3 = 0.0;

  std::string Json() const {
    return "{\"flatten\": " + FormatDouble(flatten, 6) +
           ", \"phase1\": " + FormatDouble(phase1, 6) +
           ", \"phase2\": " + FormatDouble(phase2, 6) +
           ", \"phase3\": " + FormatDouble(phase3, 6) + "}";
  }
};

/// Sums the pipeline's phase spans recorded at or after `since_us`.
PhaseSeconds PhasesSince(uint64_t since_us) {
  PhaseSeconds out;
  const std::pair<const char*, double PhaseSeconds::*> spans[] = {
      {"trace.flatten", &PhaseSeconds::flatten},
      {"phase1.preprocess", &PhaseSeconds::phase1},
      {"phase2.classes", &PhaseSeconds::phase2},
      {"phase3.combine", &PhaseSeconds::phase3}};
  for (const CollectedEvent& c : TraceRecorder::Default().Collect()) {
    const TraceEvent& e = c.event;
    if (e.kind != TraceEventKind::kSpan || e.ts_us < since_us ||
        std::strcmp(e.cat, "jecb") != 0) {
      continue;
    }
    for (const auto& [name, field] : spans) {
      if (std::strcmp(e.name, name) == 0) {
        out.*field += static_cast<double>(e.dur_us) / 1e6;
      }
    }
  }
  return out;
}

/// Phase seconds from a traced repeat of the Jecb::Partition call. A
/// --trace_out recording is already on and must be kept; otherwise the
/// recorder runs for this call only.
PhaseSeconds TracedPhases(WorkloadBundle* bundle, const JecbOptions& opt) {
  TraceRecorder& rec = TraceRecorder::Default();
  const bool own_recording = !rec.enabled();
  if (own_recording) rec.Enable();
  const uint64_t since_us = rec.NowUs();
  CheckOk(Jecb(opt)
              .Partition(bundle->db.get(), bundle->procedures, bundle->trace)
              .status(),
          "parallel_search traced repeat");
  const PhaseSeconds phases = PhasesSince(since_us);
  if (own_recording) rec.Reset();
  return phases;
}

struct ScalingRow {
  int threads = 0;
  double partition_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double partition_speedup = 0.0;
  double evaluate_speedup = 0.0;
  PhaseSeconds phases;
};

struct WorkloadScaling {
  std::string workload;
  size_t trace_txns = 0;
  double train_cost = 0.0;
  uint64_t outcome_signature = 0;
  std::vector<ScalingRow> rows;
};

WorkloadScaling RunScaling(const std::string& name, WorkloadBundle* bundle,
                           const std::vector<int>& thread_counts) {
  WorkloadScaling out;
  out.workload = name;
  out.trace_txns = bundle->trace.size();

  std::string baseline_tables;
  double baseline_cost = 0.0;
  uint64_t baseline_evaluated = 0;
  EvalResult baseline_eval;

  AsciiTable table({"threads", "partition (s)", "speedup", "evaluate (s)", "speedup",
                    "flatten (s)", "phase 1 (s)", "phase 2 (s)", "phase 3 (s)"});
  for (int threads : thread_counts) {
    JecbOptions opt;
    opt.num_partitions = 8;
    opt.num_threads = threads;

    ScalingRow row;
    row.threads = threads;
    Result<JecbResult> result = Status::Internal("not run");
    row.partition_seconds = WallSeconds([&] {
      result = Jecb(opt).Partition(bundle->db.get(), bundle->procedures,
                                   bundle->trace);
    });
    CheckOk(result.status(), ("parallel_search " + name).c_str());
    row.phases = TracedPhases(bundle, opt);

    // Standalone chunked evaluation of the found solution over the trace.
    ThreadPool pool(threads);
    ThreadPool* eval_pool = threads > 1 ? &pool : nullptr;
    EvalResult ev;
    row.evaluate_seconds = WallSeconds([&] {
      ev = Evaluate(*bundle->db, result.value().solution, bundle->trace, eval_pool);
    });

    // Replay outcome fingerprint of the found solution.
    RuntimeOptions ropt;
    ropt.num_clients = 4;
    ropt.local_work_us = 0;
    ropt.round_trip_us = 0;
    const uint64_t signature = Replay(*bundle->db, result.value().solution,
                                      bundle->trace, ropt, "parallel_search")
                                   .OutcomeSignature();

    // Determinism contract vs. the 1-thread baseline.
    const std::string tables = result.value().solution.Describe(bundle->db->schema());
    if (threads == thread_counts.front()) {
      baseline_tables = tables;
      baseline_cost = result.value().combiner_report.best_train_cost;
      baseline_evaluated = result.value().combiner_report.evaluated_combinations;
      baseline_eval = ev;
      out.train_cost = baseline_cost;
      out.outcome_signature = signature;
    } else if (tables != baseline_tables ||
               result.value().combiner_report.best_train_cost != baseline_cost ||
               result.value().combiner_report.evaluated_combinations !=
                   baseline_evaluated ||
               !(ev == baseline_eval) || signature != out.outcome_signature) {
      std::fprintf(stderr,
                   "FATAL: %s at %d threads diverged from the single-threaded "
                   "solution\n",
                   name.c_str(), threads);
      std::exit(1);
    }

    row.partition_speedup = out.rows.empty()
                                ? 1.0
                                : out.rows.front().partition_seconds /
                                      row.partition_seconds;
    row.evaluate_speedup = out.rows.empty()
                               ? 1.0
                               : out.rows.front().evaluate_seconds /
                                     row.evaluate_seconds;
    table.AddRow({std::to_string(threads),
                  FormatDouble(row.partition_seconds, 3),
                  FormatDouble(row.partition_speedup, 2) + "x",
                  FormatDouble(row.evaluate_seconds, 3),
                  FormatDouble(row.evaluate_speedup, 2) + "x",
                  FormatDouble(row.phases.flatten, 4), FormatDouble(row.phases.phase1, 4),
                  FormatDouble(row.phases.phase2, 4),
                  FormatDouble(row.phases.phase3, 4)});
    out.rows.push_back(row);
  }
  std::printf("%s: %zu txns, train cost %s, replay outcome signature %llu "
              "(identical at every thread count)\n",
              name.c_str(), out.trace_txns, Pct(out.train_cost).c_str(),
              static_cast<unsigned long long>(out.outcome_signature));
  std::printf("%s\n", table.ToString().c_str());
  return out;
}

std::string ToJson(const std::vector<WorkloadScaling>& all) {
  std::string out = "{\n";
  out += "  \"bench\": \"parallel_search\",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"workloads\": [\n";
  for (size_t w = 0; w < all.size(); ++w) {
    const WorkloadScaling& ws = all[w];
    out += "    {\"workload\": \"" + ws.workload + "\", \"trace_txns\": " +
           std::to_string(ws.trace_txns) + ", \"train_cost\": " +
           FormatDouble(ws.train_cost, 6) + ", \"outcome_signature\": \"" +
           std::to_string(ws.outcome_signature) + "\", \"rows\": [\n";
    for (size_t i = 0; i < ws.rows.size(); ++i) {
      const ScalingRow& r = ws.rows[i];
      out += "      {\"threads\": " + std::to_string(r.threads) +
             ", \"partition_seconds\": " + FormatDouble(r.partition_seconds, 6) +
             ", \"partition_speedup\": " + FormatDouble(r.partition_speedup, 3) +
             ", \"evaluate_seconds\": " + FormatDouble(r.evaluate_seconds, 6) +
             ", \"evaluate_speedup\": " + FormatDouble(r.evaluate_speedup, 3) +
             ", \"phase_seconds\": " + r.phases.Json() + "}";
      out += i + 1 < ws.rows.size() ? ",\n" : "\n";
    }
    out += "    ]}";
    out += w + 1 < all.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  InitObs(argc, argv);
  const std::string out_dir = OutDir(argc, argv);
  // --quick shrinks both traces for CI smoke runs; --tpcc_txns/--tpce_txns
  // override either directly.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  const size_t tpcc_txns = static_cast<size_t>(
      ArgInt(argc, argv, "--tpcc_txns", quick ? 8000 : 30000));
  const size_t tpce_txns = static_cast<size_t>(
      ArgInt(argc, argv, "--tpce_txns", quick ? 4000 : 12000));

  PrintHeader("Parallel pipeline scaling: Jecb::Partition and Evaluate()",
              "JECB solves in seconds (Sec. 7.5); the thread pool divides "
              "that further on multi-core hardware while reproducing the "
              "single-threaded solution bit for bit");
  std::printf("hardware_concurrency: %u%s\n\n", std::thread::hardware_concurrency(),
              quick ? " (quick)" : "");

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<WorkloadScaling> all;

  {
    TpccConfig cfg;
    cfg.warehouses = 8;
    cfg.districts_per_warehouse = 4;
    cfg.customers_per_district = 10;
    cfg.items = 50;
    cfg.initial_orders_per_district = 3;
    WorkloadBundle bundle = TpccWorkload(cfg).Make(tpcc_txns, 5);
    all.push_back(RunScaling("TPC-C", &bundle, thread_counts));
  }
  {
    TpceConfig cfg;
    cfg.customers = 400;
    WorkloadBundle bundle = TpceWorkload(cfg).Make(tpce_txns, 5);
    all.push_back(RunScaling("TPC-E", &bundle, thread_counts));
  }

  WriteBenchJson(out_dir, "parallel_search", ToJson(all));
  FinishObs(argc, argv);
  return 0;
}
