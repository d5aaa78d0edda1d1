// prefill_ffn: ModelPlan::run over 256-token batches through a chain of
// four FFN blocks, one per paper sparsity level (16:32, 12:32, 8:32,
// 4:32). The compute-bound core kernels do nearly all the work; a
// sparsity-aware change moves its own block while the others act as
// controls. Attention, the KV cache and the server do no work here.
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/epilogue.hpp"
#include "core/spmm_ref.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

using G = PrefillGeometry;
constexpr int kSetups = 7;
constexpr int kInputBatches = 4;
constexpr index_t kCheckedRows = 8;
/// Relative tolerance of the fused chain against the unfused reference
/// (different summation order through four blocks; fp32).
constexpr double kTolerance = 1e-4;

/// Unfused reference of the chain for the rows of @p x: RMSNorm, two
/// spmm_reference projections, SiLU(gate) * up, the down projection,
/// the residual add — block after block.
MatrixF reference_chain(const std::vector<model::FfnBlock>& blocks,
                        const MatrixF& x_in) {
  MatrixF x = x_in;
  const index_t m = x.rows();
  for (const model::FfnBlock& b : blocks) {
    MatrixF normed(m, b.hidden_in()), gate(m, b.ffn_dim()),
        up(m, b.ffn_dim()), y(m, b.hidden_out());
    rmsnorm_rows(x.cview(), b.input_norm.data(), b.norm_eps, normed.view());
    spmm_reference(normed.cview(), *b.gate, gate.view());
    spmm_reference(normed.cview(), *b.up, up.view());
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < b.ffn_dim(); ++j) {
        gate(i, j) = apply_activation(b.act, gate(i, j)) * up(i, j);
      }
    }
    spmm_reference(gate.cview(), *b.down, y.view());
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < b.hidden_out(); ++j) y(i, j) += x(i, j);
    }
    x = std::move(y);
  }
  return x;
}

}  // namespace

void run_prefill_ffn(const Args& args, Report& report, SpanLog* log) {
  Rng rng(args.seed);
  std::vector<model::FfnBlock> blocks;
  for (int b = 0; b < 4; ++b) {
    blocks.push_back(make_ffn_block(G::kHidden, G::kFfn, G::config(b), rng));
  }
  std::vector<MatrixF> inputs;
  for (int i = 0; i < kInputBatches; ++i) {
    inputs.push_back(random_matrix(G::kTokens, G::kHidden, rng));
  }
  MatrixF out(G::kTokens, G::kHidden);

  // Set-up: engine, plan_model, one warm-up run. Repeated; the median is
  // reported and the last set-up is the one measured.
  std::unique_ptr<Engine> engine;
  std::shared_ptr<model::ModelPlan> plan;
  std::vector<double> setup_s, build_ms;
  Engine::CacheStats setup_cache;
  for (int i = 0; i < kSetups; ++i) {
    plan.reset();
    engine.reset();
    const std::int64_t t0 = now_ns();
    engine = std::make_unique<Engine>(serial_engine());
    auto plan_or = engine->plan_model(G::kTokens, blocks);
    const std::int64_t t1 = now_ns();
    if (!plan_or.ok()) {
      report.check_failed("plan_model: " + plan_or.status().to_string());
      return;
    }
    plan = *plan_or;
    const Status warm = plan->run(inputs[0].cview(), out.view());
    const std::int64_t t2 = now_ns();
    if (!warm.ok()) {
      report.check_failed("warm-up run: " + warm.to_string());
      return;
    }
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    build_ms.push_back(ms_between(t0, t1));
    setup_cache = engine->cache_stats();
  }

  // One measured window: ModelPlan::run on the input batches in turn
  // until the budget is spent.
  std::uint64_t attempted = 0, failed = 0;
  std::size_t last_input = 0;
  const auto window = [&](double seconds, SpanBuffer* spans) {
    Window w;
    std::uint64_t tokens = 0;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t t = start;
    for (std::size_t i = 0; t < deadline; ++i) {
      last_input = i % inputs.size();
      Status s;
      {
        Scope span(spans, "ModelPlan::run", i);
        s = plan->run(inputs[last_input].cview(), out.view());
      }
      const std::int64_t t1 = now_ns();
      ++attempted;
      if (s.ok()) {
        tokens += static_cast<std::uint64_t>(G::kTokens);
        w.latency_ms.push_back(ms_between(t, t1));
      } else {
        ++failed;
        w.latency_ms.push_back(kFailedLatency);
      }
      t = t1;
    }
    w.tokens_per_s = static_cast<double>(tokens) /
                     (static_cast<double>(t - start) * 1e-9);
    return w;
  };

  std::vector<Window> windows;
  if (log == nullptr) {
    for (int i = 0; i < kWindows; ++i) {
      windows.push_back(window(args.seconds / kWindows, nullptr));
    }
  } else {
    windows.push_back(window(args.seconds / 2, nullptr));
    windows.push_back(window(args.seconds / 2, log->thread_buffer()));
    report.add("trace.overhead_frac",
               1.0 - windows[1].tokens_per_s / windows[0].tokens_per_s,
               "frac");
    report.add("model.ffn_run_ms", median(log->durations_ms("ModelPlan::run")),
               "ms");
  }
  const model::ModelPlan::Stats stats = plan->stats();
  add_end_to_end(report, windows, setup_s,
                 static_cast<double>(stats.resident_bytes()) / 1e6, attempted,
                 failed);
  add_plan_metrics(report, setup_cache, build_ms, stats.packed_bytes,
                   stats.store.repacks);

  // Correctness, outside the timed region: the last timed call's output
  // on a seeded set of rows against the unfused reference chain.
  const index_t offset = static_cast<index_t>(args.seed % 32);
  MatrixF x_rows(kCheckedRows, G::kHidden), got(kCheckedRows, G::kHidden);
  for (index_t i = 0; i < kCheckedRows; ++i) {
    const index_t r = offset + i * (G::kTokens / kCheckedRows);
    std::copy_n(inputs[last_input].row(r), G::kHidden, x_rows.row(i));
    std::copy_n(out.row(r), G::kHidden, got.row(i));
  }
  const MatrixF want = reference_chain(blocks, x_rows);
  double scale = 1e-30;
  for (index_t i = 0; i < kCheckedRows; ++i) {
    for (index_t j = 0; j < G::kHidden; ++j) {
      scale = std::max(scale, std::fabs(static_cast<double>(want(i, j))));
    }
  }
  if (args.corrupt) {
    got(0, 0) = static_cast<float>(want(0, 0) + 10 * kTolerance * scale);
  }
  double worst = 0.0;
  bool finite = true;
  for (index_t i = 0; i < kCheckedRows; ++i) {
    for (index_t j = 0; j < G::kHidden; ++j) {
      finite = finite && std::isfinite(got(i, j));
      worst = std::max(worst, std::fabs(static_cast<double>(got(i, j)) -
                                        static_cast<double>(want(i, j))));
    }
  }
  const double rel = worst / scale;
  std::ostringstream check;
  check << "check: " << kCheckedRows << " rows of the last batch vs unfused "
        << "spmm_reference chain, max |diff| / max |ref| = " << rel
        << " (tolerance " << kTolerance << ")";
  report.note(check.str());
  if (!finite || !(rel <= kTolerance)) {
    report.check_failed("prefill_ffn output differs from the reference chain");
  }
}

}  // namespace perfbench
