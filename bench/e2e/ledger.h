// Time-attribution ledger of one traced RunProgram call.
//
// Splits the driver thread's wall time into rows by the innermost span that
// covers each instant. Spans of one thread nest (they are RAII scopes), so
// every instant belongs to exactly one row and the rows sum to the wall time
// by construction; whatever no span covers is the remainder.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace dmac::e2e {

enum class LedgerRow {
  kSetup,       // plan / search spans: decompose, planning, plan search
  kLoad,        // comm spans of load steps
  kCompute,     // worker spans (and tasks the driver thread runs itself)
  kComm,        // every other comm span: shuffle, broadcast, aggregate
  kExecutor,    // stage and step self time: dispatch between the above
  kRemainder,   // RunProgram wall time no span covers
};
inline constexpr size_t kLedgerRows = 6;

/// Row name as used in metric names ("setup", "load", ...).
const char* LedgerRowName(LedgerRow row);

struct Ledger {
  double wall_s = 0;
  std::array<double, kLedgerRows> row_s{};
  /// Total duration of `worker` spans (compute including nested tasks).
  double worker_span_s = 0;

  double row(LedgerRow r) const { return row_s[static_cast<size_t>(r)]; }
};

/// Builds the ledger of the call that ran on the driver thread from
/// `start_ns` to `end_ns` (TraceRecorder clock). The driver thread is the
/// one that recorded the stage spans.
Ledger BuildLedger(const std::vector<TraceEvent>& events, int64_t start_ns,
                   int64_t end_ns);

}  // namespace dmac::e2e
