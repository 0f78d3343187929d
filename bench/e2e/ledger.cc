#include "ledger.h"

#include <algorithm>
#include <cstring>

namespace dmac::e2e {

namespace {

LedgerRow RowOf(const TraceEvent& e) {
  const char* cat = e.category;
  if (std::strcmp(cat, kTracePlan) == 0 ||
      std::strcmp(cat, kTraceSearch) == 0) {
    return LedgerRow::kSetup;
  }
  if (std::strcmp(cat, kTraceComm) == 0) {
    return e.name.rfind("load ", 0) == 0 ? LedgerRow::kLoad : LedgerRow::kComm;
  }
  if (std::strcmp(cat, kTraceWorker) == 0 ||
      std::strcmp(cat, kTraceTask) == 0 ||
      std::strcmp(cat, kTraceRecovery) == 0) {
    return LedgerRow::kCompute;
  }
  // stage, step, and the checkpoint/governance/membership bookkeeping spans.
  return LedgerRow::kExecutor;
}

}  // namespace

const char* LedgerRowName(LedgerRow row) {
  switch (row) {
    case LedgerRow::kSetup:
      return "setup";
    case LedgerRow::kLoad:
      return "load";
    case LedgerRow::kCompute:
      return "compute";
    case LedgerRow::kComm:
      return "comm";
    case LedgerRow::kExecutor:
      return "executor";
    case LedgerRow::kRemainder:
      return "remainder";
  }
  return "?";
}

Ledger BuildLedger(const std::vector<TraceEvent>& events, int64_t start_ns,
                   int64_t end_ns) {
  Ledger ledger;
  ledger.wall_s = static_cast<double>(end_ns - start_ns) * 1e-9;

  const TraceEvent* first_stage = nullptr;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.category, kTraceStage) == 0 && e.start_ns >= start_ns) {
      first_stage = &e;
      break;
    }
  }
  if (first_stage == nullptr) {
    ledger.row_s[static_cast<size_t>(LedgerRow::kRemainder)] = ledger.wall_s;
    return ledger;
  }
  const uint32_t driver = first_stage->tid;

  // Driver-thread spans inside the window, clipped to it, parents first.
  struct Span {
    int64_t start;
    int64_t end;
    LedgerRow row;
    int64_t child_ns = 0;
  };
  std::vector<Span> spans;
  for (const TraceEvent& e : events) {
    if (e.tid != driver) continue;
    const int64_t s = std::max(e.start_ns, start_ns);
    const int64_t t = std::min(e.start_ns + e.dur_ns, end_ns);
    if (t <= s) continue;
    spans.push_back({s, t, RowOf(e)});
    if (std::strcmp(e.category, kTraceWorker) == 0) {
      ledger.worker_span_s += static_cast<double>(t - s) * 1e-9;
    }
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });

  // Self time = duration minus the part its direct children cover.
  int64_t covered_ns = 0;
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].end <= spans[i].start) {
      open.pop_back();
    }
    if (open.empty()) {
      covered_ns += spans[i].end - spans[i].start;
    } else {
      Span& parent = spans[open.back()];
      parent.child_ns += std::min(spans[i].end, parent.end) - spans[i].start;
    }
    open.push_back(i);
  }
  for (const Span& s : spans) {
    ledger.row_s[static_cast<size_t>(s.row)] +=
        static_cast<double>(s.end - s.start - s.child_ns) * 1e-9;
  }
  ledger.row_s[static_cast<size_t>(LedgerRow::kRemainder)] =
      static_cast<double>(end_ns - start_ns - covered_ns) * 1e-9;
  return ledger;
}

}  // namespace dmac::e2e
