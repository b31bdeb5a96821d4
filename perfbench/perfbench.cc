// End-to-end benchmark of JECB: trace -> solution time and socket-replay
// throughput, with per-layer timings from a separate traced run.
//
//   perfbench --workload tpcc|tpce|tpcc-remote --seed N --seconds S
//             --trace 0|1 [--threads N]
//
// One run generates the workload from the seed, partitions its training
// split with Jecb::Partition (library default thread count), checks the
// solution against an independent recount, then replays the held-out test
// split through Replay() on the Unix-socket backend (closed loop, 2 client
// threads, 4 forked shard servers, every simulated cost at 0), starting
// replays until S seconds have passed and checking every one against the
// oracles in oracles.h. Partition and replay metrics are medians over the
// repeated calls.
//
// --trace 0 prints the end-to-end metrics; --trace 1 turns on the
// TraceRecorder and the shard telemetry harvest, writes the merged cluster
// trace and the per-layer table into perfbench_out/, and prints the
// per-layer metrics. The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dist/replay.h"
#include "jecb/jecb.h"
#include "obs/cluster_telemetry.h"
#include "obs/trace_export.h"
#include "obs/trace_recorder.h"
#include "oracles.h"
#include "partition/solution.h"
#include "workloads/tpcc.h"
#include "workloads/tpce.h"

namespace {

using namespace jecb;
using Clock = std::chrono::steady_clock;

constexpr int32_t kPartitions = 4;
constexpr int kClients = 2;
/// Partition() is called at least this many times and until this much time
/// has passed; the median call is reported.
constexpr int kMinPartitionCalls = 3;
constexpr double kMinPartitionSeconds = 3.0;
/// Trace ring per recording thread in the traced run: large enough that
/// no span of a replay is overwritten (checked: drops fail the run).
constexpr size_t kTraceEventsPerThread = size_t{1} << 18;
/// Outputs and socket files. Relative to the working directory, which keeps
/// the Unix socket paths under it short whatever the checkout's path is.
constexpr const char* kOutDir = "perfbench_out";

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double CpuSeconds(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Every workload generates 140k transactions and splits them 39,201 train
/// / 100,799 test: one replay of the test split then lasts seconds, long
/// enough to repeat within a run, and Partition() stays near 1.5 s.
constexpr size_t kTxns = 140000;
constexpr double kTestFraction = 0.72;

/// Generates the named workload; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadBundle* out) {
  if (name == "tpce") {
    *out = TpceWorkload().Make(kTxns, seed);
    return true;
  }
  TpccConfig config;
  if (name == "tpcc-remote") {
    config.remote_payment_prob = 0.3;
  } else if (name != "tpcc") {
    return false;
  }
  *out = TpccWorkload(config).Make(kTxns, seed);
  return true;
}

/// Named metric values in insertion order, with units.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }
  std::string Table() const {
    std::string out;
    for (const Entry& e : entries_) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-34s %14.6g %s\n", e.name.c_str(),
                    e.value, e.unit.c_str());
      out += line;
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// "category:name", the key spans are summed under (a ParallelFor's
/// fan-out span and its tasks share a name, not a category).
std::string SpanKey(const TraceEvent& e) {
  return std::string(e.cat) + ":" + e.name;
}

/// Self time per span key over every process of a merged cluster trace: a
/// span's duration minus the parts its direct children on the same thread
/// cover.
std::map<std::string, double> SpanSelfSeconds(
    const std::vector<ProcessTrace>& processes) {
  std::map<std::string, double> self_us;
  for (const ProcessTrace& proc : processes) {
    std::map<uint32_t, std::vector<const TraceEvent*>> by_thread;
    for (const CollectedEvent& ce : proc.events) {
      if (ce.event.kind == TraceEventKind::kSpan) {
        by_thread[ce.tid].push_back(&ce.event);
      }
    }
    for (auto& [tid, spans] : by_thread) {
      std::sort(spans.begin(), spans.end(),
                [](const TraceEvent* a, const TraceEvent* b) {
                  if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                  return a->dur_us > b->dur_us;
                });
      struct Open {
        const TraceEvent* span;
        uint64_t end;
        uint64_t children_us;
      };
      std::vector<Open> stack;
      auto close = [&](const Open& o) {
        self_us[SpanKey(*o.span)] +=
            static_cast<double>(o.span->dur_us - std::min(o.span->dur_us, o.children_us));
      };
      for (const TraceEvent* s : spans) {
        const uint64_t end = s->ts_us + s->dur_us;
        while (!stack.empty() && stack.back().end <= s->ts_us) {
          close(stack.back());
          stack.pop_back();
        }
        if (!stack.empty() && end <= stack.back().end) {
          stack.back().children_us += s->dur_us;
        }
        stack.push_back({s, end, 0});
      }
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, us] : self_us) out[name] = us * 1e-6;
  return out;
}

/// Total duration per span key of one process's events, and the longest
/// single span per key.
struct SpanTotals {
  std::map<std::string, double> total_s;
  std::map<std::string, double> max_s;
};

SpanTotals TotalSpans(const std::vector<CollectedEvent>& events) {
  SpanTotals out;
  for (const CollectedEvent& ce : events) {
    if (ce.event.kind != TraceEventKind::kSpan) continue;
    const double s = static_cast<double>(ce.event.dur_us) * 1e-6;
    const std::string key = SpanKey(ce.event);
    out.total_s[key] += s;
    double& m = out.max_s[key];
    m = std::max(m, s);
  }
  return out;
}

/// Unit of a per-layer metric, from its name's suffix.
std::string UnitOf(const std::string& name) {
  if (name.ends_with("_us_per_txn")) return "us/txn";
  if (name.ends_with("bytes_per_txn")) return "B/txn";
  if (name.ends_with("_per_txn")) return "count/txn";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_s")) return "s";
  return "count";
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Measurements of one Replay() call.
struct ReplaySample {
  double replay_s = 0.0;
  double tps = 0.0;
  double local_p50_us = 0.0;
  double local_p99_us = 0.0;
  double dist_p50_us = 0.0;
  double dist_p99_us = 0.0;
  // Traced run only.
  std::map<std::string, double> layers;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  /// JecbOptions::num_threads; 0 is the library default (all cpus).
  int threads = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--threads") {
      args->threads = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 && args->trace >= 0 &&
         !args->workload.empty();
}

int Run(const Args& args, Clock::time_point process_start) {
  const bool traced = args.trace == 1;
  TraceRecorder& rec = TraceRecorder::Default();

  // ---- set-up: schema, population, trace, split --------------------------
  const Clock::time_point make_start = Clock::now();
  WorkloadBundle bundle;
  if (!MakeWorkload(args.workload, args.seed, &bundle)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  auto [train, test] = bundle.trace.SplitTrainTest(kTestFraction);
  const double make_s = Seconds(make_start);
  const double setup_s = Seconds(process_start);
  std::printf("%s seed %llu: %zu txns, train %zu, test %zu, setup %.3f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              bundle.trace.size(), train.size(), test.size(), setup_s);

  // ---- partition: trace -> solution ---------------------------------------
  JecbOptions jopt;
  jopt.num_partitions = kPartitions;
  jopt.num_threads = args.threads;
  std::vector<double> partition_s;
  std::vector<std::map<std::string, double>> partition_layers;  // per call
  std::unique_ptr<JecbResult> result;
  const Clock::time_point partition_phase = Clock::now();
  for (int call = 0; call < kMinPartitionCalls ||
                     Seconds(partition_phase) < kMinPartitionSeconds;
       ++call) {
    if (traced) rec.Enable(kTraceEventsPerThread);
    const double cpu0 = CpuSeconds(RUSAGE_SELF);
    const Clock::time_point t0 = Clock::now();
    Result<JecbResult> res =
        Jecb(jopt).Partition(bundle.db.get(), bundle.procedures, train);
    partition_s.push_back(Seconds(t0));
    const double cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
    std::printf("partition %d: %.3f s\n", call, partition_s.back());
    if (!res.ok()) {
      std::fprintf(stderr, "Partition failed: %s\n", res.status().ToString().c_str());
      return 1;
    }
    result = std::make_unique<JecbResult>(std::move(res).value());
    if (traced) {
      const std::vector<CollectedEvent> events = rec.Collect();
      if (rec.dropped() > 0) {
        std::fprintf(stderr, "traced partition dropped %llu events\n",
                     static_cast<unsigned long long>(rec.dropped()));
        return 1;
      }
      rec.Reset();
      const SpanTotals spans = TotalSpans(events);
      double max_class_s = 0.0;
      for (const std::string& cls : train.class_names()) {
        max_class_s = std::max(max_class_s, Get(spans.max_s, "jecb:" + cls));
      }
      partition_layers.push_back({
          {"trace.flatten_s", Get(spans.total_s, "jecb:trace.flatten")},
          {"jecb.phase1_s", Get(spans.total_s, "jecb:phase1.preprocess")},
          {"jecb.phase2_s", Get(spans.total_s, "jecb:phase2.classes")},
          {"jecb.phase2.max_class_s", max_class_s},
          {"jecb.phase3_s", Get(spans.total_s, "jecb:phase3.combine")},
          {"jecb.cpu_s", cpu_s},
          {"partition.eval_resolve_s", Get(spans.total_s, "pool:eval.resolve")},
          {"partition.delta_rebase_s", Get(spans.total_s, "eval:delta.rebase")},
          {"partition.combiner_score_s", Get(spans.total_s, "pool:combiner.score")},
      });
    }
  }
  const DatabaseSolution& solution = result->solution;

  // ---- check the solution ---------------------------------------------------
  // Evaluate() runs first, so it is timed against a cold per-tuple memo of
  // the solution; it leaves the memo warm for every test tuple, so every
  // replay below classifies against a warm solution.
  bool correct = true;
  const Clock::time_point eval_start = Clock::now();
  const EvalResult eval = Evaluate(*bundle.db, solution, test);
  const double evaluate_s = Seconds(eval_start);
  const perfbench::Recount recount = perfbench::RecountDistributed(*bundle.db, solution, test);
  const perfbench::Recount hash_recount = perfbench::RecountDistributed(
      *bundle.db, MakeNaiveHashSolution(*bundle.db, kPartitions), test);
  if (recount.distributed != eval.distributed_txns || recount.total != eval.total_txns) {
    std::fprintf(stderr, "oracle: recount %llu distributed != Evaluate %llu\n",
                 static_cast<unsigned long long>(recount.distributed),
                 static_cast<unsigned long long>(eval.distributed_txns));
    correct = false;
  }
  if (recount.unmapped_accesses != 0) {
    std::fprintf(stderr, "oracle: %llu accesses map to no partition\n",
                 static_cast<unsigned long long>(recount.unmapped_accesses));
    correct = false;
  }
  if (recount.distributed > hash_recount.distributed) {
    std::fprintf(stderr, "oracle: JECB leaves %llu distributed, naive hash %llu\n",
                 static_cast<unsigned long long>(recount.distributed),
                 static_cast<unsigned long long>(hash_recount.distributed));
    correct = false;
  }
  const perfbench::ExpectedExchange expected =
      perfbench::ExpectExchange(*bundle.db, test, recount.is_distributed);
  std::printf("solution: %llu of %llu test txns distributed (naive hash %llu); "
              "partitioned tables left replicated:",
              static_cast<unsigned long long>(recount.distributed),
              static_cast<unsigned long long>(recount.total),
              static_cast<unsigned long long>(hash_recount.distributed));
  for (const std::string& t : result->combiner_report.replicated_tables) {
    std::printf(" %s", t.c_str());
  }
  std::printf("\n");

  // ---- replay the test split ------------------------------------------------
  const std::string run_dir =
      std::string(kOutDir) + "/run-" + std::to_string(static_cast<long long>(getpid()));
  mkdir(kOutDir, 0755);
  if (mkdir(run_dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(), std::strerror(errno));
    return 1;
  }
  RuntimeOptions ropt;
  ropt.transport = TransportKind::kUnixSocket;
  ropt.socket_dir = run_dir;
  ropt.postmortem_dir = run_dir;
  ropt.num_clients = kClients;
  ropt.local_work_us = 0;
  ropt.round_trip_us = 0;
  ropt.lock_hold_us = 0;
  ropt.telemetry_harvest = traced;
  ropt.trace_sample_rate = 1.0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<ReplaySample> samples;
  const Clock::time_point replay_phase = Clock::now();
  while (samples.empty() || Seconds(replay_phase) < args.seconds) {
    if (traced) {
      ClusterTelemetry::Default().Reset();
      rec.Enable(kTraceEventsPerThread);
    }
    const double self_cpu0 = CpuSeconds(RUSAGE_SELF);
    const double child_cpu0 = CpuSeconds(RUSAGE_CHILDREN);
    const Clock::time_point t0 = Clock::now();
    ReplayReport report = Replay(*bundle.db, solution, test, ropt, args.workload);
    ReplaySample s;
    s.replay_s = Seconds(t0);
    const double self_cpu = CpuSeconds(RUSAGE_SELF) - self_cpu0;
    const double child_cpu = CpuSeconds(RUSAGE_CHILDREN) - child_cpu0;

    attempted += test.size();
    const std::vector<std::string> problems =
        perfbench::CheckReplay(report, recount, expected, kPartitions);
    if (!problems.empty()) {
      for (const std::string& p : problems) {
        std::fprintf(stderr, "replay oracle: %s\n", p.c_str());
      }
      failed += test.size();
      correct = false;
    }
    const double committed = static_cast<double>(std::max<uint64_t>(report.committed, 1));
    s.tps = report.wall_seconds > 0.0
                ? static_cast<double>(report.committed) / report.wall_seconds
                : 0.0;
    s.local_p50_us = report.local.p50_us;
    s.local_p99_us = report.local.p99_us;
    s.dist_p50_us = report.distributed.p50_us;
    s.dist_p99_us = report.distributed.p99_us;
    std::printf("replay %zu: %.3f s, %.0f txn/s, local p50/p99 %.1f/%.1f us, "
                "dist p50/p99 %.1f/%.1f us\n",
                samples.size(), s.replay_s, s.tps, s.local_p50_us, s.local_p99_us,
                s.dist_p50_us, s.dist_p99_us);

    if (traced) {
      const std::vector<ProcessTrace> processes =
          ClusterTelemetry::Default().BuildProcessTraces();
      uint64_t dropped = rec.dropped();
      for (const RemoteProcessTelemetry& r : ClusterTelemetry::Default().Snapshot()) {
        dropped += r.dropped;
      }
      if (dropped > 0) {
        std::fprintf(stderr, "traced replay dropped %llu events\n",
                     static_cast<unsigned long long>(dropped));
        return 1;
      }
      if (samples.empty()) {
        const std::string path = std::string(kOutDir) + "/" + args.workload + ".trace.json";
        if (!WriteTextFile(path, ClusterTraceJson(processes))) {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
          return 1;
        }
      }
      const SpanTotals top = TotalSpans(processes.front().events);
      const std::map<std::string, double> self = SpanSelfSeconds(processes);
      rec.Reset();

      double children_s = 0.0;
      for (const char* name : {"replay.classify", "replay.shard_layout", "replay.run",
                               "replay.drain", "replay.snapshot"}) {
        children_s += Get(top.total_s, std::string("runtime:") + name);
      }
      uint64_t ctx = 0, participations = 0;
      for (const ShardReport& sh : report.shards) {
        ctx += sh.ctx_voluntary + sh.ctx_involuntary;
        participations += sh.local_txns + sh.dist_participations;
      }
      const TransportCounters& wire = report.transport_counters;
      s.layers = {
          {"replay.classify_s", Get(top.total_s, "runtime:replay.classify")},
          {"replay.shard_layout_s", Get(top.total_s, "runtime:replay.shard_layout")},
          {"replay.start_s", std::max(0.0, s.replay_s - children_s)},
          {"replay.run_s", Get(top.total_s, "runtime:replay.run")},
          {"replay.drain_s", Get(top.total_s, "runtime:replay.drain")},
          {"replay.coord_cpu_us_per_txn", self_cpu * 1e6 / committed},
          {"replay.shard_cpu_us_per_txn", child_cpu * 1e6 / committed},
          {"shard.ctx_switches_per_txn", static_cast<double>(ctx) / committed},
          {"shard.participations_per_txn",
           static_cast<double>(participations) / committed},
          {"wire.msgs_per_txn",
           static_cast<double>(wire.messages_sent + wire.messages_received) / committed},
          {"wire.bytes_per_txn",
           static_cast<double>(wire.bytes_sent + wire.bytes_received) / committed},
          {"wire.rtt_p50_us", report.transport_rtt.p50_us},
          {"exchange.remote_tuples_per_txn",
           static_cast<double>(report.exchange_remote_tuples) / committed},
          {"exchange.bytes_per_txn", static_cast<double>(report.exchange_bytes) / committed},
          {"exchange.batches_per_txn",
           static_cast<double>(report.exchange_batches) / committed},
      };
      for (const char* key : {"shard:shard.execute", "shard:shard.prepare",
                              "shard:shard.hold", "runtime:2pc.prepare",
                              "runtime:2pc.commit", "exchange:exchange.serve",
                              "exchange:exchange.pull"}) {
        const std::string name = std::strchr(key, ':') + 1;
        s.layers["span." + name + "_s"] = Get(self, key);
      }
    }
    samples.push_back(std::move(s));
  }
  rmdir(run_dir.c_str());

  auto median_of = [&](double ReplaySample::*field) {
    std::vector<double> v;
    for (const ReplaySample& s : samples) v.push_back(s.*field);
    return Median(v);
  };
  std::printf("%zu replays of %zu txns in %.2f s\n", samples.size(), test.size(),
              Seconds(replay_phase));

  Metrics metrics;
  if (!traced) {
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("partition_s", Median(partition_s), "s");
    metrics.Add("dist_txns", static_cast<double>(recount.distributed), "txns");
    metrics.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    metrics.Add("replay_s", median_of(&ReplaySample::replay_s), "s");
    metrics.Add("replay_tps", median_of(&ReplaySample::tps), "txn/s");
    metrics.Add("local_p99_us", median_of(&ReplaySample::local_p99_us), "us");
    metrics.Add("dist_p50_us", median_of(&ReplaySample::dist_p50_us), "us");
  } else {
    // These two sit where the runtime's power-of-two latency histogram
    // interpolates coarsely (local p50 around 32 us, distributed p99 around
    // 256 us on tpcc-remote), so they do not repeat from run to run well
    // enough to gate on; they are reported with the layers instead.
    metrics.Add("local_p50_us", median_of(&ReplaySample::local_p50_us), "us");
    metrics.Add("dist_p99_us", median_of(&ReplaySample::dist_p99_us), "us");
    metrics.Add("workloads.make_s", make_s, "s");
    for (const char* name :
         {"trace.flatten_s", "jecb.phase1_s", "jecb.phase2_s", "jecb.phase2.max_class_s",
          "jecb.phase3_s", "jecb.cpu_s", "partition.eval_resolve_s",
          "partition.delta_rebase_s", "partition.combiner_score_s"}) {
      std::vector<double> v;
      for (const auto& layers : partition_layers) v.push_back(Get(layers, name));
      metrics.Add(name, Median(v), UnitOf(name));
    }
    metrics.Add("partition.evaluate_s", evaluate_s, "s");
    metrics.Add("jecb.combinations",
                static_cast<double>(result->combiner_report.evaluated_combinations),
                "count");
    for (const auto& [name, unused] : samples.front().layers) {
      std::vector<double> v;
      for (const ReplaySample& s : samples) v.push_back(Get(s.layers, name));
      metrics.Add(name, Median(v), UnitOf(name));
    }
    const std::string table_path = std::string(kOutDir) + "/" + args.workload + ".layers.txt";
    std::ofstream(table_path) << metrics.Table();
  }
  std::printf("%s", metrics.Table().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload tpcc|tpce|tpcc-remote --seed N --seconds S "
                 "--trace 0|1 [--threads N]\n",
                 argv[0]);
    return 2;
  }
  return Run(args, process_start);
}
