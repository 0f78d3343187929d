#include "obs/trace_check.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace dmac {

namespace {

Status EventError(size_t index, const std::string& msg) {
  return Status::Invalid("traceEvents[" + std::to_string(index) + "]: " +
                         msg);
}

bool IsNumber(const JsonValue* v) {
  return v != nullptr && v->type == JsonValue::Type::kNumber;
}

bool IsString(const JsonValue* v) {
  return v != nullptr && v->type == JsonValue::Type::kString;
}

}  // namespace

std::string TraceCheckSummary::ToString() const {
  std::ostringstream out;
  out << total_events << " events (" << metadata_events << " metadata), "
      << stage_spans << " stage, " << comm_spans << " comm, " << task_spans
      << " task, " << worker_spans << " worker, " << plan_spans
      << " plan, " << recovery_spans << " recovery, " << spill_spans
      << " spill, " << cancel_spans << " cancel spans; "
      << worker_attributed
      << " events attributed to workers (max pid " << max_pid << ")";
  return out.str();
}

Result<TraceCheckSummary> CheckChromeTrace(const std::string& json) {
  DMAC_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (root.type != JsonValue::Type::kObject) {
    return Status::Invalid("top-level value is not an object");
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    return Status::Invalid("missing traceEvents array");
  }

  TraceCheckSummary summary;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    if (e.type != JsonValue::Type::kObject) {
      return EventError(i, "not an object");
    }
    const JsonValue* ph = e.Find("ph");
    if (!IsString(ph)) return EventError(i, "missing string 'ph'");
    if (!IsNumber(e.Find("pid"))) return EventError(i, "missing number 'pid'");
    const int pid = static_cast<int>(e.Find("pid")->number);
    if (pid < 0) return EventError(i, "negative pid");
    summary.max_pid = std::max(summary.max_pid, pid);

    if (ph->string == "M") {
      ++summary.metadata_events;
      continue;
    }
    if (ph->string != "X") {
      return EventError(i, "unexpected phase '" + ph->string + "'");
    }
    if (!IsString(e.Find("name"))) {
      return EventError(i, "missing string 'name'");
    }
    if (!IsString(e.Find("cat"))) return EventError(i, "missing string 'cat'");
    if (!IsNumber(e.Find("tid"))) return EventError(i, "missing number 'tid'");
    if (!IsNumber(e.Find("ts"))) return EventError(i, "missing number 'ts'");
    if (!IsNumber(e.Find("dur"))) return EventError(i, "missing number 'dur'");
    if (e.Find("ts")->number < 0) return EventError(i, "negative ts");
    if (e.Find("dur")->number < 0) return EventError(i, "negative dur");
    const JsonValue* args = e.Find("args");
    if (args != nullptr && args->type != JsonValue::Type::kObject) {
      return EventError(i, "'args' is not an object");
    }

    ++summary.total_events;
    const std::string& cat = e.Find("cat")->string;
    if (cat == "stage") ++summary.stage_spans;
    if (cat == "comm") ++summary.comm_spans;
    if (cat == "task") ++summary.task_spans;
    if (cat == "worker") ++summary.worker_spans;
    if (cat == "plan") ++summary.plan_spans;
    if (cat == "recovery") ++summary.recovery_spans;
    if (cat == "spill") ++summary.spill_spans;
    if (cat == "cancel") ++summary.cancel_spans;
    if (pid > 0) ++summary.worker_attributed;
  }
  return summary;
}

Result<TraceCheckSummary> CheckChromeTraceFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::Invalid("cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return CheckChromeTrace(buffer.str());
}

}  // namespace dmac
