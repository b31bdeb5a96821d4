// Search hot-loop speed on end-to-end TPC-C Jecb::Partition plus standalone
// Evaluate(), across the evaluation variants {full, delta} x {scalar, SIMD}
// at 1/2/4/8 worker threads (the default --mode=matrix), and the older
// legacy-row vs columnar comparison (--mode=both|legacy|columnar). Every
// variant must produce the same solution bit for bit — the bench asserts
// identical table solutions, train cost, combiner counters, EvalResults,
// and the replay OutcomeSignature across all variants and thread counts,
// and exits non-zero on any divergence. Measurements land in
// BENCH_partition_speed.json; tools/bench_compare.py diffs that against the
// committed baseline in CI and fails the build on regressions.
//
// After each timed Jecb::Partition call, a second, traced call of the same
// configuration supplies the flatten / Phase 1 / Phase 2 / Phase 3 wall
// seconds (the pipeline's own jecb:* spans) that land in the JSON rows next
// to the end-to-end seconds; the timed call itself is not traced unless
// --trace_out asks for a recording.
//
// --quick shrinks the trace for CI smoke runs; JECB_PARTITION_MODE is the
// env equivalent of --mode. Speedups are hardware-dependent; the JSON
// records hardware_concurrency.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "bench_util.h"
#include "dist/replay.h"
#include "partition/partition_scan.h"
#include "trace/flat_trace.h"
#include "workloads/tpcc.h"

using namespace jecb;
using namespace jecb::bench;

namespace {

int g_eval_iters = 5;

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

/// One variant's measurements and identity fingerprint at one thread count.
struct ModeRun {
  double partition_seconds = 0.0;
  PhaseSeconds phases;
  double evaluate_seconds = 0.0;  // per Evaluate() pass
  std::string tables;
  double train_cost = 0.0;
  uint64_t evaluated_combinations = 0;
  EvalResult eval;
  uint64_t outcome_signature = 0;
};

bool EvalEqual(const EvalResult& a, const EvalResult& b) {
  return a.total_txns == b.total_txns && a.distributed_txns == b.distributed_txns &&
         a.partitions_touched == b.partitions_touched &&
         a.class_total == b.class_total &&
         a.class_distributed == b.class_distributed &&
         a.partition_load == b.partition_load;
}

bool RunsIdentical(const ModeRun& a, const ModeRun& b) {
  return a.tables == b.tables && a.train_cost == b.train_cost &&
         a.evaluated_combinations == b.evaluated_combinations &&
         EvalEqual(a.eval, b.eval) && a.outcome_signature == b.outcome_signature;
}

ModeRun RunConfig(WorkloadBundle* bundle, const FlatTrace& flat, int threads,
                  const JecbOptions& base_opt, ScanKernel eval_kernel,
                  bool row_evaluate) {
  JecbOptions opt = base_opt;
  opt.num_partitions = 8;
  opt.num_threads = threads;

  ModeRun run;
  Result<JecbResult> result = Status::Internal("not run");
  run.partition_seconds = WallSeconds([&] {
    result =
        Jecb(opt).Partition(bundle->db.get(), bundle->procedures, bundle->trace);
  });
  CheckOk(result.status(), "partition_speed");

  // Phase seconds from a traced repeat of the call. A --trace_out
  // recording is already on and must be kept; otherwise the recorder runs
  // for this call only.
  TraceRecorder& rec = TraceRecorder::Default();
  const bool own_recording = !rec.enabled();
  if (own_recording) rec.Enable();
  const uint64_t since_us = rec.NowUs();
  CheckOk(Jecb(opt)
              .Partition(bundle->db.get(), bundle->procedures, bundle->trace)
              .status(),
          "partition_speed");
  run.phases = PhasesSince(since_us);
  if (own_recording) rec.Reset();
  run.tables = result.value().solution.Describe(bundle->db->schema());
  run.train_cost = result.value().combiner_report.best_train_cost;
  run.evaluated_combinations = result.value().combiner_report.evaluated_combinations;

  ThreadPool pool(threads);
  ThreadPool* eval_pool = threads > 1 ? &pool : nullptr;
  const DatabaseSolution& solution = result.value().solution;
  run.evaluate_seconds = WallSeconds([&] {
                           for (int i = 0; i < g_eval_iters; ++i) {
                             run.eval = row_evaluate
                                            ? Evaluate(*bundle->db, solution,
                                                       bundle->trace, eval_pool)
                                            : Evaluate(*bundle->db, solution, flat,
                                                       eval_pool, eval_kernel);
                           }
                         }) /
                         g_eval_iters;

  // Replay outcome fingerprint: thread-count, layout and kernel invariant.
  RuntimeOptions ropt;
  ropt.num_clients = 4;
  ropt.local_work_us = 0;
  ropt.round_trip_us = 0;
  run.outcome_signature =
      Replay(*bundle->db, solution, bundle->trace, ropt, "partition_speed")
          .OutcomeSignature();
  return run;
}

ModeRun RunMode(WorkloadBundle* bundle, const FlatTrace& flat, bool columnar,
                int threads) {
  JecbOptions opt;
  opt.columnar = columnar;
  // The legacy comparison isolates the row-vs-columnar layout change: both
  // sides score combinations with full evaluation on the scalar kernel.
  opt.delta = false;
  opt.simd = false;
  return RunConfig(bundle, flat, threads, opt, ScanKernel::kScalar,
                   /*row_evaluate=*/!columnar);
}

ModeRun RunVariant(WorkloadBundle* bundle, const FlatTrace& flat, int threads,
                   bool delta, bool simd) {
  JecbOptions opt;
  opt.columnar = true;
  opt.delta = delta;
  opt.simd = simd;
  return RunConfig(bundle, flat, threads, opt,
                   simd ? ScanKernel::kAuto : ScanKernel::kScalar,
                   /*row_evaluate=*/false);
}

// ---------------------------------------------------------------------------
// matrix mode: {full, delta} x {scalar, simd}
// ---------------------------------------------------------------------------

struct MatrixRow {
  int threads = 0;
  ModeRun full_scalar, full_simd, delta_scalar, delta_simd;
};

std::string MatrixJson(const std::vector<MatrixRow>& rows, size_t txns,
                       double flatten_seconds) {
  std::string out = "{\n";
  out += "  \"bench\": \"partition_speed\",\n";
  out += "  \"workload\": \"TPC-C\",\n";
  out += "  \"mode\": \"matrix\",\n";
  out += "  \"trace_txns\": " + std::to_string(txns) + ",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"scan_kernel\": \"" + std::string(ScanKernelName(BestScanKernel())) +
         "\",\n";
  out += "  \"flatten_seconds\": " + FormatDouble(flatten_seconds, 6) + ",\n";
  double max_partition_speedup = 0.0;
  double max_evaluate_speedup = 0.0;
  out += "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const MatrixRow& r = rows[i];
    const double ps =
        r.full_scalar.partition_seconds / r.delta_simd.partition_seconds;
    const double es =
        r.full_scalar.evaluate_seconds / r.delta_simd.evaluate_seconds;
    max_partition_speedup = std::max(max_partition_speedup, ps);
    max_evaluate_speedup = std::max(max_evaluate_speedup, es);
    out += "    {\"threads\": " + std::to_string(r.threads) +
           ", \"full_scalar_partition_seconds\": " +
           FormatDouble(r.full_scalar.partition_seconds, 6) +
           ", \"full_simd_partition_seconds\": " +
           FormatDouble(r.full_simd.partition_seconds, 6) +
           ", \"delta_scalar_partition_seconds\": " +
           FormatDouble(r.delta_scalar.partition_seconds, 6) +
           ", \"delta_simd_partition_seconds\": " +
           FormatDouble(r.delta_simd.partition_seconds, 6) +
           ", \"full_scalar_evaluate_seconds\": " +
           FormatDouble(r.full_scalar.evaluate_seconds, 6) +
           ", \"delta_simd_evaluate_seconds\": " +
           FormatDouble(r.delta_simd.evaluate_seconds, 6) +
           ", \"partition_speedup\": " + FormatDouble(ps, 3) +
           ", \"evaluate_speedup\": " + FormatDouble(es, 3) +
           ", \"full_scalar_phase_seconds\": " + r.full_scalar.phases.Json() +
           ", \"delta_simd_phase_seconds\": " + r.delta_simd.phases.Json() +
           ", \"identical\": true}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"max_partition_speedup\": " + FormatDouble(max_partition_speedup, 3) +
         ",\n";
  out += "  \"max_evaluate_speedup\": " + FormatDouble(max_evaluate_speedup, 3) +
         ",\n";
  out += "  \"identical\": true\n";
  out += "}\n";
  return out;
}

int RunMatrix(WorkloadBundle* bundle, const FlatTrace& flat, size_t txns,
              double flatten_seconds, const std::string& out_dir) {
  AsciiTable table({"threads", "full+scalar (s)", "full+simd (s)",
                    "delta+scalar (s)", "delta+simd (s)", "speedup"});
  AsciiTable phase_table({"threads", "flatten (s)", "phase 1 (s)", "phase 2 (s)",
                          "phase 3 (s)"});
  std::vector<MatrixRow> rows;
  for (int threads : {1, 2, 4, 8}) {
    MatrixRow row;
    row.threads = threads;
    row.full_scalar = RunVariant(bundle, flat, threads, false, false);
    row.full_simd = RunVariant(bundle, flat, threads, false, true);
    row.delta_scalar = RunVariant(bundle, flat, threads, true, false);
    row.delta_simd = RunVariant(bundle, flat, threads, true, true);

    // The identity contract: every variant at every thread count agrees with
    // full+scalar at this thread count, and full+scalar agrees across thread
    // counts with the first row.
    const ModeRun* variants[] = {&row.full_simd, &row.delta_scalar,
                                 &row.delta_simd};
    const char* names[] = {"full+simd", "delta+scalar", "delta+simd"};
    for (size_t v = 0; v < std::size(variants); ++v) {
      if (!RunsIdentical(row.full_scalar, *variants[v])) {
        std::fprintf(stderr, "FATAL: %s diverged from full+scalar at %d threads\n",
                     names[v], threads);
        return 1;
      }
    }
    if (!rows.empty() && !RunsIdentical(rows.front().full_scalar, row.full_scalar)) {
      std::fprintf(stderr,
                   "FATAL: full+scalar at %d threads diverged from 1 thread\n",
                   threads);
      return 1;
    }

    table.AddRow(
        {std::to_string(threads), FormatDouble(row.full_scalar.partition_seconds, 3),
         FormatDouble(row.full_simd.partition_seconds, 3),
         FormatDouble(row.delta_scalar.partition_seconds, 3),
         FormatDouble(row.delta_simd.partition_seconds, 3),
         FormatDouble(row.full_scalar.partition_seconds /
                          row.delta_simd.partition_seconds,
                      2) +
             "x"});
    const PhaseSeconds& ph = row.delta_simd.phases;
    phase_table.AddRow({std::to_string(threads), FormatDouble(ph.flatten, 4),
                        FormatDouble(ph.phase1, 4), FormatDouble(ph.phase2, 4),
                        FormatDouble(ph.phase3, 4)});
    rows.push_back(std::move(row));
  }
  std::printf("solutions, EvalResults, combiner counters, and replay outcome "
              "signatures identical across all variants and thread counts\n");
  std::printf("flatten: %s s (once per pipeline)\n%s\n",
              FormatDouble(flatten_seconds, 4).c_str(), table.ToString().c_str());
  std::printf("delta+simd pipeline phases:\n%s\n", phase_table.ToString().c_str());
  WriteBenchJson(out_dir, "partition_speed",
                 MatrixJson(rows, txns, flatten_seconds));
  return 0;
}

// ---------------------------------------------------------------------------
// legacy comparison mode: row-oriented vs columnar
// ---------------------------------------------------------------------------

struct BenchRow {
  int threads = 0;
  ModeRun legacy;
  ModeRun columnar;
};

std::string ToJson(const std::vector<BenchRow>& rows, size_t txns, bool both,
                   double flatten_seconds) {
  std::string out = "{\n";
  out += "  \"bench\": \"partition_speed\",\n";
  out += "  \"workload\": \"TPC-C\",\n";
  out += "  \"mode\": \"legacy_columnar\",\n";
  out += "  \"trace_txns\": " + std::to_string(txns) + ",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"flatten_seconds\": " + FormatDouble(flatten_seconds, 6) + ",\n";
  double max_partition_speedup = 0.0;
  double max_evaluate_speedup = 0.0;
  out += "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out += "    {\"threads\": " + std::to_string(r.threads);
    if (r.legacy.partition_seconds > 0.0) {
      out += ", \"legacy_partition_seconds\": " +
             FormatDouble(r.legacy.partition_seconds, 6) +
             ", \"legacy_evaluate_seconds\": " +
             FormatDouble(r.legacy.evaluate_seconds, 6) +
             ", \"legacy_phase_seconds\": " + r.legacy.phases.Json();
    }
    if (r.columnar.partition_seconds > 0.0) {
      out += ", \"columnar_partition_seconds\": " +
             FormatDouble(r.columnar.partition_seconds, 6) +
             ", \"columnar_evaluate_seconds\": " +
             FormatDouble(r.columnar.evaluate_seconds, 6) +
             ", \"columnar_phase_seconds\": " + r.columnar.phases.Json();
    }
    if (both) {
      const double ps = r.legacy.partition_seconds / r.columnar.partition_seconds;
      const double es = r.legacy.evaluate_seconds / r.columnar.evaluate_seconds;
      max_partition_speedup = std::max(max_partition_speedup, ps);
      max_evaluate_speedup = std::max(max_evaluate_speedup, es);
      out += ", \"partition_speedup\": " + FormatDouble(ps, 3) +
             ", \"evaluate_speedup\": " + FormatDouble(es, 3) +
             ", \"identical\": true";
    }
    out += "}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]";
  if (both) {
    out += ",\n  \"max_partition_speedup\": " +
           FormatDouble(max_partition_speedup, 3) +
           ",\n  \"max_evaluate_speedup\": " + FormatDouble(max_evaluate_speedup, 3);
  }
  out += "\n}\n";
  return out;
}

int RunLegacyComparison(WorkloadBundle* bundle, const FlatTrace& flat,
                        bool run_legacy, bool run_columnar, size_t txns,
                        double flatten_seconds, const std::string& out_dir) {
  AsciiTable table({"threads", "legacy part (s)", "columnar part (s)", "speedup",
                    "legacy eval (s)", "columnar eval (s)", "speedup"});
  std::vector<BenchRow> rows;
  for (int threads : {1, 2, 4, 8}) {
    BenchRow row;
    row.threads = threads;
    if (run_legacy) row.legacy = RunMode(bundle, flat, /*columnar=*/false, threads);
    if (run_columnar) {
      row.columnar = RunMode(bundle, flat, /*columnar=*/true, threads);
    }

    if (run_legacy && run_columnar &&
        !RunsIdentical(row.legacy, row.columnar)) {
      std::fprintf(stderr, "FATAL: columnar diverged from legacy at %d threads\n",
                   threads);
      return 1;
    }

    auto fmt = [](double s) { return s > 0.0 ? FormatDouble(s, 3) : std::string("-"); };
    auto ratio = [&](double l, double c) {
      return (l > 0.0 && c > 0.0) ? FormatDouble(l / c, 2) + "x" : std::string("-");
    };
    table.AddRow({std::to_string(threads), fmt(row.legacy.partition_seconds),
                  fmt(row.columnar.partition_seconds),
                  ratio(row.legacy.partition_seconds, row.columnar.partition_seconds),
                  fmt(row.legacy.evaluate_seconds), fmt(row.columnar.evaluate_seconds),
                  ratio(row.legacy.evaluate_seconds, row.columnar.evaluate_seconds)});
    rows.push_back(std::move(row));
  }
  if (run_legacy && run_columnar) {
    std::printf("solutions, EvalResults, and replay outcome signatures identical "
                "across modes and thread counts\n");
  }
  std::printf("flatten: %s s (once per pipeline)\n%s\n",
              FormatDouble(flatten_seconds, 4).c_str(), table.ToString().c_str());

  WriteBenchJson(out_dir, "partition_speed",
                 ToJson(rows, txns, run_legacy && run_columnar, flatten_seconds));
  return 0;
}

bool HasFlag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  InitObs(argc, argv);
  const std::string out_dir = OutDir(argc, argv);
  const bool quick = HasFlag(argc, argv, "--quick");
  const size_t txns =
      static_cast<size_t>(ArgInt(argc, argv, "--txns", quick ? 6000 : 20000));
  if (quick) g_eval_iters = 3;

  std::string mode = ArgValue(argc, argv, "--mode", "");
  if (mode.empty()) {
    const char* env = std::getenv("JECB_PARTITION_MODE");
    mode = env != nullptr ? env : "matrix";
  }
  const bool run_matrix = mode == "matrix";
  const bool run_legacy = mode == "both" || mode == "legacy";
  const bool run_columnar = mode == "both" || mode == "columnar";
  if (!run_matrix && !run_legacy && !run_columnar) {
    std::fprintf(stderr, "unknown --mode %s (matrix|both|legacy|columnar)\n",
                 mode.c_str());
    return 2;
  }

  PrintHeader("Search hot-loop speed: delta evaluation + SIMD partition scan",
              "candidate scoring rescans only affected transactions on a "
              "vectorized kernel; every variant must agree with the full "
              "scalar evaluation bit for bit");
  std::printf("hardware_concurrency: %u, txns: %zu, mode: %s, best kernel: %s%s\n\n",
              std::thread::hardware_concurrency(), txns, mode.c_str(),
              std::string(ScanKernelName(BestScanKernel())).c_str(),
              quick ? " (quick)" : "");

  TpccConfig cfg;
  cfg.warehouses = 8;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 10;
  cfg.items = 50;
  cfg.initial_orders_per_district = 3;
  WorkloadBundle bundle = TpccWorkload(cfg).Make(txns, 5);

  FlatTrace flat;
  const double flatten_seconds =
      WallSeconds([&] { flat = FlatTrace::FromTrace(bundle.trace); });

  int rc;
  if (run_matrix) {
    rc = RunMatrix(&bundle, flat, txns, flatten_seconds, out_dir);
  } else {
    rc = RunLegacyComparison(&bundle, flat, run_legacy, run_columnar, txns,
                             flatten_seconds, out_dir);
  }
  if (rc != 0) return rc;
  FinishObs(argc, argv);
  return 0;
}
