// Shared helpers for the figure-reproduction benchmark binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/session.h"
#include "obs/exec_stats.h"

namespace dmac {
namespace bench {

/// Opt-in observability for any bench binary (docs/observability.md):
/// setting DMAC_TRACE_OUT and/or DMAC_METRICS_OUT enables tracing/metrics
/// for the whole run and writes the files when the benchmark exits. Unset
/// (the default, and how all reported numbers are measured) this is a no-op
/// and the observability layer stays on its disabled fast path.
class ObsSession {
 public:
  ObsSession() {
    if (const char* env = std::getenv("DMAC_TRACE_OUT")) trace_out_ = env;
    if (const char* env = std::getenv("DMAC_METRICS_OUT")) metrics_out_ = env;
    if (!trace_out_.empty() || !metrics_out_.empty()) EnableObservability();
  }
  ~ObsSession() {
    if (!trace_out_.empty()) {
      Status st = WriteTraceFile(trace_out_);
      if (!st.ok()) {
        std::fprintf(stderr, "DMAC_TRACE_OUT: %s\n", st.ToString().c_str());
      }
    }
    if (!metrics_out_.empty()) {
      Status st = WriteMetricsFile(metrics_out_);
      if (!st.ok()) {
        std::fprintf(stderr, "DMAC_METRICS_OUT: %s\n", st.ToString().c_str());
      }
    }
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string trace_out_;
  std::string metrics_out_;
};

/// Global scale divisor: workloads are the paper's divided by this factor.
/// Override with the DMAC_BENCH_SCALE environment variable (>1 = smaller
/// and faster, <1 = closer to paper scale).
inline double ScaleFactor(double default_scale) {
  if (const char* env = std::getenv("DMAC_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) return default_scale * v;
  }
  return default_scale;
}

inline std::string HumanBytes(double bytes) {
  char buf[64];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// The cluster network model used to convert measured compute + counted
/// bytes into cluster-equivalent seconds (≈1 Gbit/s, as in the paper's
/// testbed class).
inline NetworkModel PaperNetwork() { return NetworkModel{}; }

}  // namespace bench
}  // namespace dmac
