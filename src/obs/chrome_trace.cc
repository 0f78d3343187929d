#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/json.h"

namespace dmac {

namespace {

/// Microseconds with nanosecond precision (the format's `ts`/`dur` unit).
std::string Micros(int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

int PidOf(const TraceEvent& e) { return e.worker < 0 ? 0 : e.worker + 1; }

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& obj) {
    if (!first) out += ",\n";
    first = false;
    out += obj;
  };

  // Metadata: name the driver and worker "processes" so Perfetto's track
  // labels read "driver" / "worker 3" instead of bare pids, and sort the
  // driver first.
  std::set<int> pids;
  for (const TraceEvent& e : events) pids.insert(PidOf(e));
  for (int pid : pids) {
    const std::string name =
        pid == 0 ? std::string("driver")
                 : "worker " + std::to_string(pid - 1);
    append("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
           JsonQuote(name) + "}}");
    append("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"name\":\"process_sort_index\",\"args\":{"
           "\"sort_index\":" +
           std::to_string(pid) + "}}");
  }

  for (const TraceEvent& e : events) {
    std::string obj = "{\"ph\":\"X\",\"pid\":" + std::to_string(PidOf(e)) +
                      ",\"tid\":" + std::to_string(e.tid) +
                      ",\"ts\":" + Micros(e.start_ns) +
                      ",\"dur\":" + Micros(e.dur_ns) +
                      ",\"cat\":" + JsonQuote(e.category) +
                      ",\"name\":" + JsonQuote(e.name);
    if (!e.args.empty()) obj += ",\"args\":{" + e.args + "}";
    obj += "}";
    append(obj);
  }
  out += "]}\n";
  return out;
}

Status WriteChromeTraceFile(const std::string& path,
                            const std::vector<TraceEvent>& events) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::Invalid("cannot open trace output file " + path);
  }
  file << ChromeTraceJson(events);
  file.flush();
  if (!file) {
    return Status::Invalid("failed writing trace output file " + path);
  }
  return Status::Ok();
}

}  // namespace dmac
