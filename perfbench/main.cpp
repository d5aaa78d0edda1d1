// perfbench — the repo benchmark.
//
//   perfbench --workload <prefill_ffn|decode_long|decode_serve>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is a separate run that records spans around each call into a
// layer, runs the layer probes, and reports the per-layer metrics; the
// spans are written to --trace-out when the run ends. The last line of
// standard output is the JSON result; the exit code is non-zero when a
// correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>

#include "bench.hpp"
#include "machine.hpp"

namespace {

using namespace perfbench;

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"tokens_per_s", "tok/s"}, {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"}, {"setup_s", "s"},
    {"resident_mb", "MB"},     {"ok_frac", "frac"},
};

/// Every per-layer metric. A workload in which a layer does no work
/// reports its metrics as 0.
constexpr MetricName kPerLayer[] = {
    {"machine.fma_peak_gflops", "GFLOP/s"},
    {"core.spmm_gflops.s50", "GFLOP/s"},
    {"core.spmm_gflops.s625", "GFLOP/s"},
    {"core.spmm_gflops.s75", "GFLOP/s"},
    {"core.spmm_gflops.s875", "GFLOP/s"},
    {"core.frac_of_peak.s50", "frac"},
    {"core.frac_of_peak.s625", "frac"},
    {"core.frac_of_peak.s75", "frac"},
    {"core.frac_of_peak.s875", "frac"},
    {"core.speedup_vs_dense.s50", "x"},
    {"core.speedup_vs_dense.s625", "x"},
    {"core.speedup_vs_dense.s75", "x"},
    {"core.speedup_vs_dense.s875", "x"},
    {"core.flop_per_byte.s50", "flop/B"},
    {"core.flop_per_byte.s625", "flop/B"},
    {"core.flop_per_byte.s75", "flop/B"},
    {"core.flop_per_byte.s875", "flop/B"},
    {"core.decode_proj_us.qkv.m4", "us"},
    {"core.decode_proj_us.out.m4", "us"},
    {"core.decode_proj_us.gate.m4", "us"},
    {"core.decode_proj_us.up.m4", "us"},
    {"core.decode_proj_us.down.m4", "us"},
    {"core.decode_proj_us.qkv.m1", "us"},
    {"core.decode_proj_us.out.m1", "us"},
    {"core.decode_proj_us.gate.m1", "us"},
    {"core.decode_proj_us.up.m1", "us"},
    {"core.decode_proj_us.down.m1", "us"},
    {"core.plan_cache_hit_frac", "frac"},
    {"core.plan_build_ms", "ms"},
    {"baselines.dense_gflops", "GFLOP/s"},
    {"attn.attend_us.ctx128", "us"},
    {"attn.attend_us.ctx1024", "us"},
    {"attn.append_us", "us"},
    {"attn.kv_gbps", "GB/s"},
    {"attn.share_of_step", "frac"},
    {"attn.kv_pages_recycled_frac", "frac"},
    {"model.ffn_run_ms", "ms"},
    {"model.decode_step_ms.ctx128", "ms"},
    {"model.decode_step_ms.ctx1024", "ms"},
    {"model.stage_sum_over_step", "ratio"},
    {"model.stage_us.norm_qkv", "us"},
    {"model.stage_us.rope_append", "us"},
    {"model.stage_us.attention", "us"},
    {"model.stage_us.out_proj", "us"},
    {"model.stage_us.gate_up", "us"},
    {"model.stage_us.down", "us"},
    {"serve.rows_per_batch", "rows"},
    {"serve.bypass_frac", "frac"},
    {"serve.queue_us_p50", "us"},
    {"serve.gather_us_p50", "us"},
    {"serve.execute_us_p50", "us"},
    {"serve.ring_stalls", "count"},
    {"mem.packed_mb", "MB"},
    {"mem.store_repacks", "count"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<prefill_ffn|decode_long|decode_serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--corrupt]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// The metrics this mode reports, in canonical order; per-layer metrics
/// a workload did not measure are reported as 0.
Report select(Report all, bool trace) {
  // 1 - failed_frac: every failed or refused operation, the failed
  // correctness checks included, over every operation attempted.
  all.add("ok_frac",
          1.0 - static_cast<double>(all.failed()) /
                    static_cast<double>(all.attempted()),
          "frac");
  Report out;
  out.count_ops(all.attempted(), all.failed());
  if (!all.correct()) out.mark_incorrect();
  for (const std::string& n : all.notes()) out.note(n);
  std::string not_applicable;
  const std::span<const MetricName> names =
      trace ? std::span<const MetricName>(kPerLayer)
            : std::span<const MetricName>(kEndToEnd);
  for (const MetricName& m : names) {
    if (const double* v = all.value(m.name)) {
      out.add(m.name, *v, m.unit);
    } else {
      out.add(m.name, 0.0, m.unit);
      if (!not_applicable.empty()) not_applicable += ", ";
      not_applicable += m.name;
    }
  }
  if (!not_applicable.empty()) {
    out.note("no work in this workload, reported as 0: " + not_applicable);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Kernels that take their threads from the library's global pool (the
  // dense baseline) run on one thread like every engine here.
  setenv("NMSPMM_THREADS", "1", 1);
  const Args args = parse(argc, argv);
  void (*run)(const Args&, Report&, SpanLog*) = nullptr;
  if (args.workload == "prefill_ffn") {
    run = run_prefill_ffn;
  } else if (args.workload == "decode_long") {
    run = run_decode_long;
  } else if (args.workload == "decode_serve") {
    run = run_decode_serve;
  } else {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }

  Report report;
  try {
    const Machine machine = probe_machine();
    std::printf("machine: %s\n", machine.json().c_str());
    SpanLog log;
    run(args, report, args.trace ? &log : nullptr);
    if (args.trace) {
      run_layer_probes(args.seed, machine, report);
      if (!args.trace_out.empty()) {
        if (log.write(args.trace_out, machine.json())) {
          report.note("spans written to " + args.trace_out);
        } else {
          report.note("could not write spans to " + args.trace_out);
        }
      }
    }
  } catch (const std::exception& e) {
    report.check_failed(std::string("exception: ") + e.what());
  }
  if (report.attempted() == 0) report.check_failed("no operation ran");

  select(report, args.trace).print(args.workload);
  return report.correct() ? 0 : 1;
}
