// decode_long: DecoderPlan::decode driven directly for 4 sequences, each
// decoded from an empty context to context 1024, then freed and begun
// again. Attention over the KV cache dominates the late steps; the
// server does no work here.
//
// The check — and, in the traced run, the stage breakdown — replays
// steps as their component public calls, the unfused discipline of
// examples/llama_decode.cpp (Engine::spmm, rmsnorm_rows, DecodeAttention
// over a KvCache), and compares the fused step against it bit for bit.
#include <sstream>

#include "attn/attention.hpp"
#include "attn/kv_cache.hpp"
#include "bench.hpp"
#include "core/epilogue.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

using G = DecodeGeometry;
constexpr index_t kSeqs = 4;
constexpr index_t kContext = 1024;
constexpr index_t kPool = 256;  ///< generated token rows the steps cycle
constexpr int kSetups = 15;
constexpr index_t kCheckSteps = 256;  ///< checked window of untraced runs
/// Step latency at a context is the median of the steps ending there.
constexpr index_t kStepWindow = 16;

/// The stages of a decode step, in pipeline order (the span names).
constexpr const char* kStages[] = {"norm_qkv", "rope_append", "attention",
                                   "out_proj", "gate_up",     "down"};

void add_rows(MatrixF& y, const MatrixF& x) {
  for (index_t i = 0; i < y.rows(); ++i) {
    for (index_t j = 0; j < y.cols(); ++j) y(i, j) += x(i, j);
  }
}

Status first_error(const Status& batch, const std::vector<Status>& rows) {
  if (!batch.ok()) return batch;
  for (const Status& s : rows) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

/// One decode step as its unfused public calls, one span per stage.
class Replay {
 public:
  Replay(const model::DecoderLayer& layer, Engine& engine,
         const attn::KvCacheOptions& kv)
      : layer_(layer),
        engine_(engine),
        attn_(layer.attn),
        kv_(kv),
        normed_(kSeqs, G::kHidden),
        qkv_(kSeqs, layer.attn.qkv_dim()),
        attn_out_(kSeqs, layer.attn.q_dim()),
        x1_(kSeqs, G::kHidden),
        normed2_(kSeqs, G::kHidden),
        gate_(kSeqs, G::kFfn),
        up_(kSeqs, G::kFfn),
        out_(kSeqs, G::kHidden) {}

  Status begin(const std::uint64_t* ids) {
    for (index_t s = 0; s < kSeqs; ++s) {
      if (Status st = kv_.begin_sequence(ids[s]); !st.ok()) return st;
    }
    return Status::Ok();
  }

  Status step(const MatrixF& x, const std::uint64_t* ids, SpanBuffer* spans,
              std::uint64_t req) {
    const index_t q_dim = layer_.attn.q_dim();
    const index_t kv_dim = layer_.attn.kv_dim();
    Scope step_span(spans, "replay.step", req);
    {
      Scope span(spans, kStages[0], req);
      rmsnorm_rows(x.cview(), layer_.attn_norm.data(), layer_.norm_eps,
                   normed_.view());
      if (Status st = engine_.spmm(normed_.cview(), layer_.qkv, qkv_.view());
          !st.ok()) {
        return st;
      }
    }
    {
      Scope span(spans, kStages[1], req);
      for (index_t s = 0; s < kSeqs; ++s) {
        float* row = qkv_.row(s);
        if (Status st = attn_.append(kv_, ids[s], row + q_dim,
                                     row + q_dim + kv_dim);
            !st.ok()) {
          return st;
        }
      }
    }
    {
      Scope span(spans, kStages[2], req);
      for (index_t s = 0; s < kSeqs; ++s) {
        if (Status st = attn_.attend(kv_, ids[s], qkv_.row(s),
                                     attn_out_.row(s));
            !st.ok()) {
          return st;
        }
      }
    }
    {
      Scope span(spans, kStages[3], req);
      if (Status st =
              engine_.spmm(attn_out_.cview(), layer_.out_proj, x1_.view());
          !st.ok()) {
        return st;
      }
      add_rows(x1_, x);
    }
    const model::FfnBlock& ffn = layer_.ffn;
    {
      Scope span(spans, kStages[4], req);
      rmsnorm_rows(x1_.cview(), ffn.input_norm.data(), ffn.norm_eps,
                   normed2_.view());
      if (Status st = engine_.spmm(normed2_.cview(), ffn.gate, gate_.view());
          !st.ok()) {
        return st;
      }
      if (Status st = engine_.spmm(normed2_.cview(), ffn.up, up_.view());
          !st.ok()) {
        return st;
      }
    }
    {
      Scope span(spans, kStages[5], req);
      for (index_t i = 0; i < kSeqs; ++i) {
        for (index_t j = 0; j < G::kFfn; ++j) {
          gate_(i, j) = apply_activation(ffn.act, gate_(i, j)) * up_(i, j);
        }
      }
      if (Status st = engine_.spmm(gate_.cview(), ffn.down, out_.view());
          !st.ok()) {
        return st;
      }
      add_rows(out_, x1_);
    }
    return Status::Ok();
  }

  [[nodiscard]] const MatrixF& out() const { return out_; }

 private:
  const model::DecoderLayer& layer_;
  Engine& engine_;
  attn::DecodeAttention attn_;
  attn::KvCache kv_;
  MatrixF normed_, qkv_, attn_out_, x1_, normed2_, gate_, up_, out_;
};

}  // namespace

void run_decode_long(const Args& args, Report& report, SpanLog* log) {
  Rng rng(args.seed);
  const model::DecoderLayer layer = make_decoder_layer(rng);
  const MatrixF pool = random_matrix(kPool, G::kHidden, rng);
  const attn::KvCacheOptions kv_opt = G::kv_options(kSeqs * kContext);
  const std::uint64_t ids[kSeqs] = {1, 2, 3, 4};

  MatrixF x(kSeqs, G::kHidden), out(kSeqs, G::kHidden);
  std::vector<Status> row_status(kSeqs);
  std::uint64_t next_row = 0;
  const auto next_tokens = [&] {
    for (index_t s = 0; s < kSeqs; ++s) {
      std::copy_n(pool.row(static_cast<index_t>(next_row++ % kPool)),
                  G::kHidden, x.row(s));
    }
  };

  std::unique_ptr<Engine> engine;
  std::shared_ptr<model::DecoderPlan> plan;
  const auto restart = [&]() -> Status {
    for (index_t s = 0; s < kSeqs; ++s) {
      if (plan->has_sequence(ids[s])) {
        if (Status st = plan->free_sequence(ids[s]); !st.ok()) return st;
      }
      if (Status st = plan->begin_sequence(ids[s]); !st.ok()) return st;
    }
    return Status::Ok();
  };

  // Set-up: engine, plan_decoder, sequences begun, one warm-up step, the
  // sequences begun again from an empty context. Repeated; median.
  std::vector<double> setup_s, build_ms;
  Engine::CacheStats setup_cache;
  for (int i = 0; i < kSetups; ++i) {
    plan.reset();
    engine.reset();
    const std::int64_t t0 = now_ns();
    engine = std::make_unique<Engine>(serial_engine());
    auto plan_or = engine->plan_decoder(kSeqs, layer, kv_opt);
    const std::int64_t t1 = now_ns();
    if (!plan_or.ok()) {
      report.check_failed("plan_decoder: " + plan_or.status().to_string());
      return;
    }
    plan = *plan_or;
    Status st = restart();
    if (st.ok()) {
      next_row = 0;
      next_tokens();
      st = first_error(plan->decode(x.cview(), ids, out.view(),
                                    row_status.data()),
                       row_status);
    }
    if (st.ok()) st = restart();
    const std::int64_t t2 = now_ns();
    if (!st.ok()) {
      report.check_failed("decode set-up: " + st.to_string());
      return;
    }
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    build_ms.push_back(ms_between(t0, t1));
    setup_cache = engine->cache_stats();
  }

  // One measured window: whole context cycles until the budget is spent,
  // so every window averages over the same mix of short and long
  // contexts. Latency i is the step at context i % kContext + 1.
  std::uint64_t attempted = 0, failed = 0;
  const auto cycles = [&](double seconds, SpanBuffer* spans) {
    Window w;
    std::uint64_t tokens = 0;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    do {
      for (index_t c = 1; c <= kContext; ++c) {
        next_tokens();
        const std::int64_t t0 = now_ns();
        Status st;
        {
          Scope span(spans, "DecoderPlan::decode",
                     static_cast<std::uint64_t>(c));
          st = plan->decode(x.cview(), ids, out.view(), row_status.data());
        }
        const std::int64_t t1 = now_ns();
        ++attempted;
        if (first_error(st, row_status).ok()) {
          tokens += kSeqs;
          w.latency_ms.push_back(ms_between(t0, t1));
        } else {
          ++failed;
          w.latency_ms.push_back(kFailedLatency);
        }
      }
      ++attempted;
      if (!restart().ok()) ++failed;
    } while (now_ns() < deadline);
    w.tokens_per_s = static_cast<double>(tokens) /
                     (static_cast<double>(now_ns() - start) * 1e-9);
    return w;
  };

  std::vector<Window> windows;
  SpanBuffer* spans = nullptr;
  if (log == nullptr) {
    for (int i = 0; i < kWindows; ++i) {
      windows.push_back(cycles(args.seconds / kWindows, nullptr));
    }
  } else {
    windows.push_back(cycles(args.seconds / 2, nullptr));
    spans = log->thread_buffer();
    windows.push_back(cycles(args.seconds / 2, spans));
    report.add("trace.overhead_frac",
               1.0 - windows[1].tokens_per_s / windows[0].tokens_per_s,
               "frac");
    const std::vector<double>& traced = windows[1].latency_ms;
    for (const index_t ctx : {index_t{128}, kContext}) {
      std::vector<double> steps;
      for (std::size_t i = 0; i < traced.size(); ++i) {
        const auto c = static_cast<index_t>(i) % kContext + 1;
        if (c > ctx - kStepWindow && c <= ctx) steps.push_back(traced[i]);
      }
      report.add("model.decode_step_ms.ctx" + std::to_string(ctx),
                 median(steps), "ms");
    }
  }
  const model::DecoderPlan::Stats stats = plan->stats();
  add_end_to_end(report, windows, setup_s,
                 static_cast<double>(stats.resident_bytes()) / 1e6, attempted,
                 failed);

  // Correctness, outside the timed region: fused steps from an empty
  // context against the unfused replay, bit for bit. The traced run
  // checks a whole cycle and times the replay's stages on it.
  const index_t check_steps = log == nullptr ? kCheckSteps : kContext;
  Replay replay(layer, *engine, kv_opt);
  Status st = replay.begin(ids);
  index_t mismatch_step = -1;
  for (index_t c = 1; c <= check_steps && st.ok(); ++c) {
    next_tokens();
    const auto step = static_cast<std::uint64_t>(c);
    {
      Scope span(spans, "check.DecoderPlan::decode", step);
      st = first_error(
          plan->decode(x.cview(), ids, out.view(), row_status.data()),
          row_status);
    }
    if (st.ok()) st = replay.step(x, ids, spans, step);
    if (args.corrupt && c == check_steps) flip_low_bit(out(0, 0));
    if (st.ok() && mismatch_step < 0 &&
        !bit_equal(out.cview(), replay.out().cview())) {
      mismatch_step = c;
    }
  }
  std::ostringstream check;
  check << "check: " << check_steps << " fused steps x " << kSeqs
        << " sequences vs the unfused public-call replay, bit-exact";
  report.note(check.str());
  if (!st.ok()) {
    report.check_failed("decode check window: " + st.to_string());
  } else if (mismatch_step >= 0) {
    report.check_failed("fused decode differs from the replay at context " +
                        std::to_string(mismatch_step));
  }

  if (log != nullptr) {
    const std::map<std::string, double> self_ns = log->self_ns();
    const auto total_of = [&](const char* name) {
      const auto it = self_ns.find(name);
      return it == self_ns.end() ? 0.0 : it->second;
    };
    double stage_sum = 0.0;
    for (const char* stage : kStages) {
      stage_sum += total_of(stage);
      report.add(std::string("model.stage_us.") + stage,
                 total_of(stage) * 1e-3 / static_cast<double>(check_steps),
                 "us");
    }
    report.add("model.stage_sum_over_step",
               stage_sum / total_of("check.DecoderPlan::decode"), "ratio");
    report.add("attn.share_of_step",
               (total_of("rope_append") + total_of("attention")) / stage_sum,
               "frac");
  }
  const model::DecoderPlan::Stats end = plan->stats();
  add_kv_recycling(report, end.kv);
  add_plan_metrics(report, setup_cache, build_ms,
                   end.packed_bytes + end.ffn.packed_bytes,
                   end.ffn.store.repacks);
}

}  // namespace perfbench
