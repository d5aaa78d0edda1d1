// Layer probes of the traced run. Each times one public entry point at a
// fixed shape on one thread and reports the median of repeated calls:
//   core       SpmmPlan::execute (from Engine::plan_for) at the prefill
//              shape per sparsity level, and at the decode projection
//              shapes at m = 4 and m = 1
//   baselines  gemm_blocked at the prefill shape (the dense control)
//   attn       DecodeAttention::attend at contexts 128 and 1024, and
//              DecodeAttention::append
// Rates are stated against the FMA roof measured in the same run.
#include <sstream>

#include "attn/attention.hpp"
#include "attn/kv_cache.hpp"
#include "baselines/dense_gemm.hpp"
#include "bench.hpp"
#include "core/engine.hpp"
#include "machine.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

/// Median ms of @p fn over at least @p min_reps calls and @p budget_s
/// seconds, after one warm-up call.
template <typename Fn>
double median_ms(Fn&& fn, int min_reps, double budget_s) {
  fn();
  std::vector<double> ms;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(budget_s * 1e9);
  while (static_cast<int>(ms.size()) < min_reps || now_ns() - start < budget) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(ms_between(t0, now_ns()));
  }
  return median(ms);
}

/// Execute a plan built by @p engine for m rows; CheckError on failure
/// (a probe that cannot run is a broken build, not a measurement).
double plan_median_ms(Engine& engine, index_t m,
                      const std::shared_ptr<const CompressedNM>& w,
                      Rng& rng, int min_reps, double budget_s,
                      std::size_t* packed_bytes = nullptr) {
  auto plan_or = engine.plan_for(m, w);
  plan_or.status().check_ok();
  const std::shared_ptr<const SpmmPlan> plan = *plan_or;
  const MatrixF A = random_matrix(m, w->orig_rows, rng);
  MatrixF C(m, w->cols);
  if (packed_bytes != nullptr) {
    *packed_bytes = plan->packed_weights() != nullptr
                        ? plan->packed_weights()->footprint_bytes()
                        : 0;
  }
  return median_ms([&] { plan->execute(A.cview(), C.view()).check_ok(); },
                   min_reps, budget_s);
}

void core_and_baseline(Rng& rng, const Machine& machine, Report& report) {
  using G = PrefillGeometry;
  Engine engine(serial_engine());
  const index_t m = G::kTokens, k = G::kHidden, n = G::kFfn;
  const double dense_flops = 2.0 * m * n * k;

  const MatrixF A = random_matrix(m, k, rng);
  const MatrixF B = random_matrix(k, n, rng);
  MatrixF C(m, n);
  const double dense_ms =
      median_ms([&] { gemm_blocked(A.cview(), B.cview(), C.view()); }, 5, 0.3);
  report.add("baselines.dense_gflops", dense_flops / (dense_ms * 1e6),
             "GFLOP/s");

  for (int level = 0; level < 4; ++level) {
    const NMConfig cfg = G::config(level);
    const auto w = std::make_shared<const CompressedNM>(
        random_compressed(k, n, cfg, rng));
    std::size_t packed = 0;
    const double ms = plan_median_ms(engine, m, w, rng, 5, 0.25, &packed);
    const double flops = dense_flops * cfg.density();
    const double gflops = flops / (ms * 1e6);
    const std::string s = G::kLevel[level];
    report.add("core.spmm_gflops." + s, gflops, "GFLOP/s");
    report.add("core.frac_of_peak." + s, gflops / machine.fma_peak_gflops,
               "frac");
    report.add("core.speedup_vs_dense." + s, dense_ms / ms, "x");
    // Computed, not measured: the kernel's useful flops over the bytes
    // of A, the resident packed B and C, each touched once.
    const double bytes =
        4.0 * static_cast<double>(m * k + m * n) + static_cast<double>(packed);
    report.add("core.flop_per_byte." + s, flops / bytes, "flop/B");
    std::ostringstream os;
    os << "core " << cfg.to_string() << ": speedup over dense "
       << dense_ms / ms << "x against the ideal " << 1.0 / cfg.density()
       << "x; flop/byte computed from tensor sizes";
    report.note(os.str());
  }

  using D = DecodeGeometry;
  const index_t qkv = D::attn_config().qkv_dim();
  const index_t q = D::attn_config().q_dim();
  const struct {
    const char* name;
    index_t k, n;
  } projections[] = {{"qkv", D::kHidden, qkv},  {"out", q, D::kHidden},
                     {"gate", D::kHidden, D::kFfn},
                     {"up", D::kHidden, D::kFfn},
                     {"down", D::kFfn, D::kHidden}};
  for (const auto& p : projections) {
    const auto w = std::make_shared<const CompressedNM>(
        random_compressed(p.k, p.n, D::config(), rng));
    for (const index_t rows : {index_t{4}, index_t{1}}) {
      report.add(std::string("core.decode_proj_us.") + p.name + ".m" +
                     std::to_string(rows),
                 plan_median_ms(engine, rows, w, rng, 20, 0.08) * 1e3, "us");
    }
  }
}

void attention(Rng& rng, Report& report) {
  using D = DecodeGeometry;
  const attn::AttnConfig cfg = D::attn_config();
  attn::KvCache kv(D::kv_options(1024));
  attn::DecodeAttention attn(cfg);
  kv.begin_sequence(1).check_ok();

  const index_t kv_dim = cfg.kv_dim();
  const MatrixF keys = random_matrix(1024, kv_dim, rng);
  const MatrixF values = random_matrix(1024, kv_dim, rng);
  const MatrixF query = random_matrix(1, cfg.q_dim(), rng);
  std::vector<float> k(static_cast<std::size_t>(kv_dim));
  std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()));
  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  std::vector<double> append_ms;
  double attend_1024_ms = 0.0;
  for (index_t t = 0; t < 1024; ++t) {
    std::copy_n(keys.row(t), kv_dim, k.data());
    const std::int64_t t0 = now_ns();
    attn.append(kv, 1, k.data(), values.row(t)).check_ok();
    append_ms.push_back(ms_between(t0, now_ns()));
    const index_t ctx = t + 1;
    if (ctx == 128 || ctx == 1024) {
      const double ms = median_ms(
          [&] {
            std::copy_n(query.row(0), cfg.q_dim(), q.data());
            attn.attend(kv, 1, q.data(), out.data()).check_ok();
          },
          50, 0.15);
      report.add("attn.attend_us.ctx" + std::to_string(ctx), ms * 1e3, "us");
      if (ctx == 1024) attend_1024_ms = ms;
    }
  }
  report.add("attn.append_us", median(append_ms) * 1e3, "us");
  // Computed: the unique K and V bytes of the context, read once.
  const double kv_bytes = 2.0 * 1024 * static_cast<double>(kv_dim) * 4.0;
  report.add("attn.kv_gbps", kv_bytes / (attend_1024_ms * 1e6), "GB/s");
  report.note("attn.kv_gbps is computed from the K/V bytes of context 1024");
}

}  // namespace

void run_layer_probes(std::uint64_t seed, const Machine& machine,
                      Report& report) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  report.add("machine.fma_peak_gflops", machine.fma_peak_gflops, "GFLOP/s");
  core_and_baseline(rng, machine, report);
  attention(rng, report);
}

}  // namespace perfbench
