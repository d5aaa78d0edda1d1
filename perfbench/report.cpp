#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/epilogue.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

// ---------------------------------------------------------------- report

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const double* Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m.value;
  }
  return nullptr;
}

void Report::check_failed(const std::string& what) {
  correct_ = false;
  ++attempted_;
  ++failed_;
  notes_.push_back("CORRECTNESS CHECK FAILED: " + what);
}

namespace {

/// JSON number with every digit; a non-finite value (a failed call's
/// latency reached the reported percentile) becomes a huge finite one.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 1e300;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(const std::string& workload) const {
  std::printf("== %s\n", workload.c_str());
  for (const std::string& n : notes_) std::printf("   %s\n", n.c_str());
  for (const Metric& m : metrics_) {
    std::printf("   %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("   attempted %llu, failed %llu, failed_frac %.6g, correct %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              correct_ ? "true" : "false");
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << metrics_[i].name << "\": {\"value\": "
       << json_number(metrics_[i].value) << ", \"unit\": \""
       << metrics_[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// --------------------------------------------------------------- latency

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Nearest-rank quantile: sample ceil(q * n) of the sorted samples.
std::size_t quantile_rank(double q, std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
}

}  // namespace

void add_end_to_end(Report& report, const std::vector<Window>& windows,
                    const std::vector<double>& setup_s, double resident_mb,
                    std::uint64_t attempted, std::uint64_t failed) {
  report.count_ops(attempted, failed);
  std::size_t samples = 0;
  for (const Window& w : windows) samples += w.latency_ms.size();
  // The tail percentile: the highest of p99 and p90 that leaves at least
  // 10 of the run's samples beyond it (p50 if neither does).
  double q = 0.5;
  const char* label = "p50";
  for (const auto& [tail_q, tail_label] :
       {std::pair{0.99, "p99"}, std::pair{0.90, "p90"}}) {
    if (samples - std::min(samples, quantile_rank(tail_q, samples)) >= 10) {
      q = tail_q;
      label = tail_label;
      break;
    }
  }
  std::vector<double> tokens_per_s, p50, tail;
  for (const Window& w : windows) {
    if (w.latency_ms.empty()) continue;
    std::vector<double> sorted = w.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    tokens_per_s.push_back(w.tokens_per_s);
    p50.push_back(median(sorted));
    tail.push_back(sorted[std::min(sorted.size(),
                                   quantile_rank(q, sorted.size())) - 1]);
  }
  report.add("tokens_per_s", median(tokens_per_s), "tok/s");
  report.add("latency_ms_p50", median(p50), "ms");
  report.add("latency_ms_tail", median(tail), "ms");
  report.add("setup_s", median(setup_s), "s");
  report.add("resident_mb", resident_mb, "MB");
  std::ostringstream os;
  os << "timing metrics are medians over " << windows.size()
     << " windows of " << samples << " calls in all; the tail is " << label
     << " (" << samples - std::min(samples, quantile_rank(q, samples))
     << " of the run's calls lie beyond it); setup_s is the median of "
     << setup_s.size() << " set-ups";
  report.note(os.str());
}

namespace {

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void add_plan_metrics(Report& report, const Engine::CacheStats& after_setup,
                      const std::vector<double>& build_ms,
                      std::size_t packed_bytes, std::uint64_t repacks) {
  report.add("core.plan_cache_hit_frac",
             share(static_cast<double>(after_setup.hits),
                   static_cast<double>(after_setup.hits + after_setup.misses)),
             "frac");
  report.add("core.plan_build_ms", median(build_ms), "ms");
  report.add("mem.packed_mb", static_cast<double>(packed_bytes) / 1e6, "MB");
  report.add("mem.store_repacks", static_cast<double>(repacks), "count");
}

void add_kv_recycling(Report& report, const attn::KvCache::Stats& kv) {
  report.add("attn.kv_pages_recycled_frac",
             share(static_cast<double>(kv.pages_recycled),
                   static_cast<double>(kv.pages_allocated + kv.pages_recycled)),
             "frac");
}

// ------------------------------------------------------------------ spans

SpanBuffer* SpanLog::thread_buffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.emplace_back();
  SpanBuffer& b = buffers_.back();
  b.tid = static_cast<std::uint32_t>(buffers_.size());
  b.spans.reserve(1 << 16);
  return &b;
}

std::map<std::string, double> SpanLog::self_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const SpanBuffer& b : buffers_) {
    std::vector<double> self(b.spans.size(), 0.0);
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      const auto dur = static_cast<double>(s.t1_ns - s.t0_ns);
      self[i] += dur;
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= dur;
    }
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      out[b.spans[i].name] += self[i];
    }
  }
  return out;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanBuffer& b : buffers_) {
    for (const Span& s : b.spans) {
      if (name == s.name) out.push_back(ms_between(s.t0_ns, s.t1_ns));
    }
  }
  return out;
}

bool SpanLog::write(const std::string& path, const std::string& other) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"otherData\": " << other << ",\n\"traceEvents\": [";
  bool first = true;
  char buf[256];
  for (const SpanBuffer& b : buffers_) {
    for (const Span& s : b.spans) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"req\": %llu, \"parent\": %d}}",
                    first ? "" : ",", s.name, b.tid,
                    static_cast<double>(s.t0_ns - origin_ns_) * 1e-3,
                    static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3,
                    static_cast<unsigned long long>(s.req), s.parent);
      os << buf;
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// --------------------------------------------------------------- geometry

EngineOptions serial_engine() {
  EngineOptions opt;
  opt.num_threads = 1;
  return opt;
}

namespace {

std::shared_ptr<const CompressedNM> weights(index_t k, index_t n,
                                            const NMConfig& config,
                                            Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed(k, n, config, rng));
}

std::vector<float> gain(index_t n, Rng& rng) {
  const MatrixF g = random_matrix(1, n, rng, 0.9f, 1.1f);
  return std::vector<float>(g.row(0), g.row(0) + n);
}

}  // namespace

model::FfnBlock make_ffn_block(index_t hidden, index_t ffn,
                               const NMConfig& config, Rng& rng) {
  model::FfnBlock b;
  b.gate = weights(hidden, ffn, config, rng);
  b.up = weights(hidden, ffn, config, rng);
  b.down = weights(ffn, hidden, config, rng);
  b.act = Activation::kSilu;
  b.input_norm = gain(hidden, rng);
  b.residual = true;
  return b;
}

attn::AttnConfig DecodeGeometry::attn_config() {
  attn::AttnConfig cfg;
  cfg.n_heads = kHeads;
  cfg.n_kv_heads = kKvHeads;
  cfg.head_dim = kHeadDim;
  return cfg;
}

attn::KvCacheOptions DecodeGeometry::kv_options(index_t max_tokens) {
  attn::KvCacheOptions opt;
  opt.n_kv_heads = kKvHeads;
  opt.head_dim = kHeadDim;
  opt.page_tokens = 64;
  opt.max_tokens = max_tokens;
  return opt;
}

model::DecoderLayer make_decoder_layer(Rng& rng) {
  using G = DecodeGeometry;
  model::DecoderLayer layer;
  layer.attn = G::attn_config();
  layer.qkv = weights(G::kHidden, layer.attn.qkv_dim(), G::config(), rng);
  layer.out_proj = weights(layer.attn.q_dim(), G::kHidden, G::config(), rng);
  layer.attn_norm = gain(G::kHidden, rng);
  layer.ffn = make_ffn_block(G::kHidden, G::kFfn, G::config(), rng);
  return layer;
}

bool bit_equal(ConstViewF a, ConstViewF b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.row(r), b.row(r),
                    static_cast<std::size_t>(a.cols()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void flip_low_bit(float& value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= 1u;
  std::memcpy(&value, &bits, sizeof bits);
}

}  // namespace perfbench
