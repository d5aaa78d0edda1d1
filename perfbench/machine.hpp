// The machine block: what the run executed on, and the roof it is
// measured against. Identification comes from CPUID and sysconf, so
// the benchmark reads no files outside its checkout.
//
// Only the compute roof is measured. No DRAM bandwidth probe: every
// working set of the three workloads (at most ~40 MB of packed weights
// and KV pages) fits the host's last-level cache, and a valid streaming
// probe needs arrays of at least four times the LLC — 1.2 GiB on a
// 300 MiB-LLC host — which is more memory than a benchmark on a shared
// machine should take.
#pragma once

#include <string>

namespace perfbench {

struct Machine {
  std::string cpu_model;
  std::string isa_flags;  ///< vector ISA extensions the CPU reports
  unsigned cores = 0;     ///< logical CPUs visible to this process
  long l1d_bytes = 0;
  long l2_bytes = 0;
  long l3_bytes = 0;
  int vector_bits = 0;    ///< SIMD width the build targets
  /// Register-resident FMA loop on one core at vector_bits, best of
  /// several trials, measured in this run.
  double fma_peak_gflops = 0.0;

  [[nodiscard]] std::string json() const;
};

/// Identify the host and measure the 1-core FMA peak.
Machine probe_machine();

}  // namespace perfbench
