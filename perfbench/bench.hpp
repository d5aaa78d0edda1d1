// Shared pieces of the repo benchmark: command-line arguments, the
// result report, latency summaries, the span log the traced runs record
// around each call into a library layer, and the two model geometries
// the workloads use.
//
// The benchmark drives only the library's public entry points: Engine,
// SpmmPlan, ModelPlan, DecoderPlan, DecodeAttention / KvCache,
// Server::submit_decode and the aggregate Server::stats(). Spans live in
// these files, not in the library, so a change to the library never has
// to edit the benchmark to keep its numbers comparable.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "model/decoder.hpp"
#include "model/ffn.hpp"
#include "util/rng.hpp"

namespace perfbench {

using nmspmm::index_t;

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
  /// Self-test hook: flip one checked output value before comparing, so
  /// the correctness check must fail.
  bool corrupt = false;
};

// ----------------------------------------------------------------- clock

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

// ---------------------------------------------------------------- report

/// What one run prints: the correctness verdict, the operation counts
/// and the metrics, in the order they were added.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// The value of metric @p name, or null when it was not added.
  [[nodiscard]] const double* value(const std::string& name) const;

  /// A correctness check failed: the run is incorrect and the checked
  /// operation counts as failed.
  void check_failed(const std::string& what);
  void mark_incorrect() { correct_ = false; }
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A note printed beside the metrics (sample counts, the percentile a
  /// tail value uses, what was computed rather than measured).
  void note(const std::string& text) { notes_.push_back(text); }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

  /// Human-readable lines, then the one-line JSON result.
  void print(const std::string& workload) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// A failed or refused call's latency sample: it misses every limit.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

double median(std::vector<double> values);

/// One measured window of a run: tokens completed per second over its
/// wall time, and the latency of every call in it.
struct Window {
  double tokens_per_s = 0.0;
  std::vector<double> latency_ms;
};

/// Consecutive windows an untraced run is measured in. Each timing
/// metric is the median over them, so a slow spell of the shared host
/// that covers one window does not move the run's figure.
inline constexpr int kWindows = 3;

/// Count the measured operations and add the five timing/size
/// end-to-end metrics: tokens/s, the p50 and the tail of each window,
/// each the median over @p windows. The tail is the highest of p99 and
/// p90 that leaves at least 10 of the run's calls beyond it. (ok_frac
/// is added from the final operation counts, which include the
/// correctness checks.)
void add_end_to_end(Report& report, const std::vector<Window>& windows,
                    const std::vector<double>& setup_s, double resident_mb,
                    std::uint64_t attempted, std::uint64_t failed);

/// The set-up side of the plan layer and the weight store: plan-cache
/// hits after set-up, median plan build time, packed bytes, repacks.
void add_plan_metrics(Report& report,
                      const nmspmm::Engine::CacheStats& after_setup,
                      const std::vector<double>& build_ms,
                      std::size_t packed_bytes, std::uint64_t repacks);

/// Share of KV page acquisitions served from the free list.
void add_kv_recycling(Report& report, const nmspmm::attn::KvCache::Stats& kv);

// ------------------------------------------------------------------ spans

/// One recorded interval around a call into a layer.
struct Span {
  const char* name = nullptr;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int32_t parent = -1;  ///< index in the same buffer, -1 for a root
  std::uint64_t req = 0;     ///< request / step identifier
};

/// Spans of one recording thread (no locking on the record path).
struct SpanBuffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of unfinished spans

  std::int32_t begin(const char* name, std::uint64_t req) {
    const auto idx = static_cast<std::int32_t>(spans.size());
    spans.push_back(
        {name, now_ns(), 0, open.empty() ? -1 : open.back(), req});
    open.push_back(idx);
    return idx;
  }
  void end(std::int32_t idx) {
    spans[static_cast<std::size_t>(idx)].t1_ns = now_ns();
    open.pop_back();
  }
  /// A finished interval that did not nest on this thread's stack (a
  /// request from submit until its future was seen resolved).
  void record(const char* name, std::int64_t t0, std::int64_t t1,
              std::uint64_t req) {
    spans.push_back({name, t0, t1, -1, req});
  }
};

/// In-memory span log of a traced run, written out when the run ends.
class SpanLog {
 public:
  /// A buffer for the calling thread; stable for the log's lifetime.
  SpanBuffer* thread_buffer();

  /// Per span name: summed self time (ns), a span's duration minus the
  /// part of it its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_ns() const;
  /// Durations (ms) of every span with @p name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Chrome trace-event JSON; @p other is a JSON object stored as
  /// "otherData" (the machine block).
  [[nodiscard]] bool write(const std::string& path,
                           const std::string& other) const;

 private:
  mutable std::mutex mutex_;
  std::deque<SpanBuffer> buffers_;
  std::int64_t origin_ns_ = now_ns();
};

/// RAII span; a null buffer (tracing off) records nothing.
class Scope {
 public:
  Scope(SpanBuffer* buffer, const char* name, std::uint64_t req = 0)
      : buffer_(buffer), idx_(buffer ? buffer->begin(name, req) : -1) {}
  ~Scope() {
    if (buffer_ != nullptr) buffer_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanBuffer* buffer_;
  std::int32_t idx_;
};

// ------------------------------------------------------------- geometry

/// bench_decode's decoder layer: hidden 512, 8 query heads and 4 KV
/// heads of dim 64, ffn 1376, every projection 8:32 (L = 16).
struct DecodeGeometry {
  static constexpr index_t kHidden = 512;
  static constexpr index_t kHeads = 8;
  static constexpr index_t kKvHeads = 4;
  static constexpr index_t kHeadDim = 64;
  static constexpr index_t kFfn = 1376;
  static nmspmm::NMConfig config() { return {8, 32, 16}; }
  static nmspmm::attn::AttnConfig attn_config();
  /// 64-token pages, @p max_tokens across all live sequences.
  static nmspmm::attn::KvCacheOptions kv_options(index_t max_tokens);
};

/// A decoder layer of DecodeGeometry with weights and norm gains drawn
/// from @p rng.
nmspmm::model::DecoderLayer make_decoder_layer(nmspmm::Rng& rng);

/// Prefill FFN chain: 4 blocks of hidden 1024 / ffn 2752, one per paper
/// sparsity level, L = 16.
struct PrefillGeometry {
  static constexpr index_t kTokens = 256;
  static constexpr index_t kHidden = 1024;
  static constexpr index_t kFfn = 2752;
  /// N of N:32 per block, and the metric suffix naming its sparsity.
  static constexpr int kN[4] = {16, 12, 8, 4};
  static constexpr const char* kLevel[4] = {"s50", "s625", "s75", "s875"};
  static nmspmm::NMConfig config(int block) { return {kN[block], 32, 16}; }
};

/// A pre-norm SwiGLU block with residual, weights drawn from @p rng.
nmspmm::model::FfnBlock make_ffn_block(index_t hidden, index_t ffn,
                                       const nmspmm::NMConfig& config,
                                       nmspmm::Rng& rng);

/// Engine options every workload uses: each engine runs on 1 thread.
nmspmm::EngineOptions serial_engine();

// ------------------------------------------------------------- workloads

struct Machine;

void run_prefill_ffn(const Args& args, Report& report, SpanLog* log);
void run_decode_long(const Args& args, Report& report, SpanLog* log);
void run_decode_serve(const Args& args, Report& report, SpanLog* log);

/// The layer probes every traced run reports: kernel GFLOP/s per
/// sparsity level against the dense baseline and the measured FMA
/// roof, decode-shape projection latencies, and attention latencies.
void run_layer_probes(std::uint64_t seed, const Machine& machine,
                      Report& report);

/// Bitwise equality of two equally shaped row-major float blocks.
bool bit_equal(nmspmm::ConstViewF a, nmspmm::ConstViewF b);

/// Self-test corruption for the bit-exact checks: flip the lowest
/// mantissa bit of @p value (one ulp).
void flip_low_bit(float& value);

}  // namespace perfbench
