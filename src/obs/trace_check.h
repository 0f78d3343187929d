// Structural validator for emitted Chrome-trace JSON.
//
// Used by tools/dmac_trace_check (the CI smoke checker) and the obs tests.
// It parses the document with the shared strict reader (common/json.h) and
// checks the Trace Event Format contract plus this repo's span-model
// guarantees. That reader shares a module with the exporter's string
// quoter, so CI also loads emitted traces with Python's json module: a
// parser that shares no code with the exporter.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"

namespace dmac {

/// What the validator found in a well-formed trace.
struct TraceCheckSummary {
  int64_t total_events = 0;     // "X" (complete) events
  int64_t metadata_events = 0;  // "M" events
  int64_t stage_spans = 0;      // cat == "stage"
  int64_t comm_spans = 0;       // cat == "comm"
  int64_t task_spans = 0;       // cat == "task"
  int64_t worker_spans = 0;     // cat == "worker"
  int64_t plan_spans = 0;       // cat == "plan"
  int64_t recovery_spans = 0;   // cat == "recovery"
  int64_t spill_spans = 0;      // cat == "spill"
  int64_t cancel_spans = 0;     // cat == "cancel"
  int64_t worker_attributed = 0;  // events with pid > 0 (a worker process)
  int max_pid = 0;

  std::string ToString() const;
};

/// Validates `json` as a Chrome-trace document: parseable JSON, a
/// `traceEvents` array, every event an object with the fields its phase
/// requires (`X` events: name, cat, numeric ts/dur/pid/tid). Returns the
/// summary, or an error Status naming the first violation.
Result<TraceCheckSummary> CheckChromeTrace(const std::string& json);

/// CheckChromeTrace over a file's contents.
Result<TraceCheckSummary> CheckChromeTraceFile(const std::string& path);

}  // namespace dmac
