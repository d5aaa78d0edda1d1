#include "machine.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "bench.hpp"

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string isa_flags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  add(__builtin_cpu_supports("avx512bf16"), "avx512bf16");
  add(__builtin_cpu_supports("amx-tile"), "amx-tile");
#endif
  return flags.empty() ? "unknown" : flags;
}

// The FMA roof: kAcc independent accumulator chains, enough to cover the
// FMA latency on both FMA ports, all kept in registers.
#if defined(__AVX512F__)
constexpr int kVectorBits = 512;
constexpr int kLanes = 16;
constexpr int kAcc = 16;
using Vec = __m512;
inline Vec splat(float x) { return _mm512_set1_ps(x); }
inline Vec fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
inline float lane0(Vec v) { return _mm512_cvtss_f32(v); }
#elif defined(__AVX2__) && defined(__FMA__)
constexpr int kVectorBits = 256;
constexpr int kLanes = 8;
constexpr int kAcc = 12;
using Vec = __m256;
inline Vec splat(float x) { return _mm256_set1_ps(x); }
inline Vec fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
inline float lane0(Vec v) { return _mm256_cvtss_f32(v); }
#else
constexpr int kVectorBits = 32;
constexpr int kLanes = 1;
constexpr int kAcc = 8;
using Vec = float;
inline Vec splat(float x) { return x; }
inline Vec fma(Vec a, Vec b, Vec c) { return a * b + c; }
inline float lane0(Vec v) { return v; }
#endif

constexpr int kTrials = 9;  ///< ~20 ms bursts; the best is the roof

volatile float g_sink = 0.0f;

/// GFLOP/s of one timed burst of @p iters iterations.
double fma_burst(std::int64_t iters, float seed) {
  Vec acc[kAcc];
  for (int i = 0; i < kAcc; ++i) acc[i] = splat(seed + 0.001f * i);
  const Vec mul = splat(0.999999f);
  const Vec add = splat(1e-7f);
  const std::int64_t t0 = now_ns();
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < kAcc; ++i) acc[i] = fma(acc[i], mul, add);
  }
  const std::int64_t t1 = now_ns();
  float s = 0.0f;
  for (int i = 0; i < kAcc; ++i) s += lane0(acc[i]);
  g_sink = s;
  const double flops = 2.0 * kLanes * kAcc * static_cast<double>(iters);
  return flops / static_cast<double>(t1 - t0);
}

}  // namespace

std::string Machine::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"cpu_model\": \"" << cpu_model << "\", \"isa_flags\": \""
     << isa_flags << "\", \"cores\": " << cores
     << ", \"l1d_bytes\": " << l1d_bytes << ", \"l2_bytes\": " << l2_bytes
     << ", \"l3_bytes\": " << l3_bytes << ", \"vector_bits\": " << vector_bits
     << ", \"fma_peak_gflops\": " << fma_peak_gflops
     << ", \"fma_peak_source\": \"measured: register-resident FMA loop, 1 "
        "core, best of "
     << kTrials << " trials\", \"dram_bandwidth\": \"not probed: every "
        "working set fits the LLC; a valid probe needs arrays of at least "
        "4x the LLC\"}";
  return os.str();
}

Machine probe_machine() {
  Machine m;
  m.cpu_model = cpu_brand();
  m.isa_flags = isa_flags();
  m.cores = std::thread::hardware_concurrency();
  m.l1d_bytes = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  m.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  m.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  m.vector_bits = kVectorBits;
  fma_burst(1 << 20, 1.0f);
  double best = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    best = std::max(best, fma_burst(std::int64_t{1} << 22, 1.0f + trial));
  }
  m.fma_peak_gflops = best;
  return m;
}

}  // namespace perfbench
