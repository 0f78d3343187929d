// dmac_lint — static analysis of a matrix-language script and its plan.
//
//   dmac_lint SCRIPT.dmac [options]
//
// Runs the src/analysis pass pipeline twice: once over the decomposed
// operator list (shape conformance, def-before-use, aliasing) and — when
// that is clean enough to plan — once over the finalized execution plan
// (scheme consistency, communication cost cross-check, dead nodes).
//
// Options:
//   --workers N        simulated workers for the cost cross-check (default 4)
//   --baseline         lint the SystemML-S (dependency-oblivious) plan
//   --no-plan          operator-level checks only; skip planning
//   --werror           treat warnings as errors for the exit code
//   --format=FORMAT    `text` (default, human-readable) or `json`: one
//                      machine-consumable object with file/line/severity/
//                      pass records per diagnostic, for CI and editors
//   --corrupt-node ID  deliberately flip node ID's partition scheme after
//                      planning (testing hook: proves the verifier catches
//                      a corrupted plan)
//   --cost             append the calibrated cost estimate (plan/costmodel.h):
//                      per-step estimated comm bytes + seconds, and totals.
//                      In JSON mode this adds a "cost" object to the report.
//   --plan-search MODE run the cost-based plan search (off|beam|exhaustive,
//                      plan/search.h) and print the ranked candidate table;
//                      JSON mode adds a "search" object
//   --beam-width W     beam width / finalist cap of the search (default 8)
//   --calibration FILE kernel rates for --cost / --plan-search
//                      (CALIBRATION.json or BENCH_kernels.json)
//
// Exit status: 0 clean, 1 diagnostics at error severity (or any finding
// with --werror), 2 usage error. The exit code is format-independent.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/json.h"
#include "lang/decompose.h"
#include "lang/parser.h"
#include "plan/costmodel.h"
#include "plan/planner.h"
#include "plan/search.h"

using namespace dmac;

namespace {

enum class Format { kText, kJson };

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s SCRIPT.dmac [--workers N] [--baseline] [--no-plan] "
               "[--werror] [--format=text|json] [--corrupt-node ID] "
               "[--cost] [--plan-search off|beam|exhaustive] [--beam-width W] "
               "[--calibration FILE]\n",
               argv0);
  return 2;
}

/// Exit code for a report under the --werror policy.
int ExitCode(const AnalysisReport& report, bool werror) {
  if (report.HasErrors()) return 1;
  if (werror && !report.diagnostics.empty()) return 1;
  return 0;
}

/// One diagnostic as a JSON record. The script has no per-op source
/// positions, so `line` is 0 (whole file) and `op` carries the operator /
/// plan-step id the finding is tied to (-1 when global).
std::string DiagnosticJson(const std::string& file, const Diagnostic& d) {
  std::string out = "    {\"file\":" + JsonQuote(file) + ",\"line\":0";
  out += ",\"severity\":" + JsonQuote(SeverityName(d.severity));
  out += ",\"pass\":" + JsonQuote(d.pass);
  out += ",\"op\":" + std::to_string(d.op_id);
  out += ",\"message\":" + JsonQuote(d.message);
  if (!d.fixit_hint.empty()) {
    out += ",\"fixit\":" + JsonQuote(d.fixit_hint);
  }
  out += "}";
  return out;
}

/// Emits the whole run as one JSON object:
///   {"schema":"dmac-lint-v1","file":...,"phase":"operators"|"plan",
///    "errors":N,"warnings":N,"diagnostics":[{file,line,severity,pass,op,
///    message,fixit?}, ...]}
/// `extra` is spliced in before the closing brace — the "cost" / "search"
/// objects of --cost / --plan-search (empty otherwise); consumers that only
/// know the base schema ignore the additional keys.
void PrintJson(const std::string& file, const char* phase,
               const AnalysisReport& report, const std::string& extra = "") {
  std::string out = "{\"schema\":\"dmac-lint-v1\"";
  out += ",\"file\":" + JsonQuote(file);
  out += ",\"phase\":\"";
  out += phase;
  out += "\"";
  out += ",\"errors\":" + std::to_string(report.ErrorCount());
  out += ",\"warnings\":" + std::to_string(report.WarningCount());
  out += ",\"diagnostics\":[";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += DiagnosticJson(file, report.diagnostics[i]);
  }
  if (!report.diagnostics.empty()) out += "\n  ";
  out += "]";
  out += extra;
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

/// --cost, text mode: a per-step estimate table plus a totals line.
void PrintCostText(const Plan& plan, const CostModel& model,
                   const PlanCost& cost) {
  std::printf("cost (calibration=%s, %zu entries%s):\n",
              model.table().source().c_str(), model.table().num_entries(),
              model.table().byte_cost_only() ? ", byte-cost only" : "");
  std::printf("  %-5s %-5s %14s %12s  %s\n", "step", "stage", "est-bytes",
              "est-seconds", "kind");
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    const StepCost& sc = cost.steps[i];
    std::printf("  s%-4d %-5d %14.0f %12.6f  %s\n", step.id, step.stage,
                sc.comm_bytes, sc.seconds(), StepKindLabel(step).c_str());
  }
  std::printf(
      "  total: %.2f MB comm, est %.3fs (compute %.3fs + comm %.3fs)\n",
      cost.comm_bytes / 1e6, cost.seconds(), cost.compute_seconds,
      cost.comm_seconds);
}

/// --cost, JSON mode: the "cost" object spliced into the report.
std::string CostJson(const Plan& plan, const CostModel& model,
                     const PlanCost& cost) {
  char buf[160];
  std::string out = ",\"cost\":{";
  out += "\"calibration\":" + JsonQuote(model.table().source());
  out += ",\"byte_cost_only\":";
  out += model.table().byte_cost_only() ? "true" : "false";
  std::snprintf(buf, sizeof(buf),
                ",\"comm_bytes\":%.0f,\"compute_seconds\":%.6f,"
                "\"comm_seconds\":%.6f,\"seconds\":%.6f",
                cost.comm_bytes, cost.compute_seconds, cost.comm_seconds,
                cost.seconds());
  out += buf;
  out += ",\"steps\":[";
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const StepCost& sc = cost.steps[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%d,\"stage\":%d,\"comm_bytes\":%.0f,"
                  "\"seconds\":%.6f,\"kind\":",
                  i == 0 ? "" : ",", plan.steps[i].id, plan.steps[i].stage,
                  sc.comm_bytes, sc.seconds());
    out += buf;
    out += JsonQuote(StepKindLabel(plan.steps[i]));
    out += "}";
  }
  out += "]}";
  return out;
}

/// --plan-search, text mode: the ranked candidate table.
void PrintSearchText(const SearchResult& sres, PlanSearchMode mode,
                     int beam_width) {
  std::printf("plan-search (%s, width %d): %zu candidates, %lld rejected, "
              "%.1fms\n",
              PlanSearchModeName(mode), beam_width, sres.candidates.size(),
              static_cast<long long>(sres.stats.rejected),
              sres.stats.seconds * 1e3);
  for (size_t i = 0; i < sres.candidates.size(); ++i) {
    const PlanCandidate& c = sres.candidates[i];
    std::printf("  #%zu%s est %.3fs, comm %.2f MB  %s\n", i,
                c.greedy ? " [greedy]" : "", c.cost.seconds(),
                c.cost.comm_bytes / 1e6, c.decisions.c_str());
  }
}

/// --plan-search, JSON mode: the "search" object spliced into the report.
std::string SearchJson(const SearchResult& sres, PlanSearchMode mode,
                       int beam_width) {
  char buf[160];
  std::string out = ",\"search\":{";
  out += "\"mode\":" + JsonQuote(PlanSearchModeName(mode));
  std::snprintf(buf, sizeof(buf),
                ",\"beam_width\":%d,\"rejected\":%lld,\"seconds\":%.6f",
                beam_width, static_cast<long long>(sres.stats.rejected),
                sres.stats.seconds);
  out += buf;
  out += ",\"candidates\":[";
  for (size_t i = 0; i < sres.candidates.size(); ++i) {
    const PlanCandidate& c = sres.candidates[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"rank\":%zu,\"greedy\":%s,\"seconds\":%.6f,"
                  "\"comm_bytes\":%.0f,\"decisions\":",
                  i == 0 ? "" : ",", i, c.greedy ? "true" : "false",
                  c.cost.seconds(), c.cost.comm_bytes);
    out += buf;
    out += JsonQuote(c.decisions);
    out += "}";
  }
  out += "]}";
  return out;
}

/// Front-end failures (parse/decompose/plan) still produce a JSON object in
/// JSON mode so consumers never have to scrape stderr.
int FrontendError(Format format, const std::string& file, const char* pass,
                  const Status& status) {
  if (format == Format::kJson) {
    AnalysisReport report;
    Diagnostic d;
    d.severity = Severity::kError;
    d.pass = pass;
    d.message = status.ToString();
    report.diagnostics.push_back(std::move(d));
    PrintJson(file, pass, report);
  } else {
    std::fprintf(stderr, "%s: %s error: %s\n", file.c_str(), pass,
                 status.ToString().c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string script_path = argv[1];

  int num_workers = 4;
  bool baseline = false, no_plan = false, werror = false;
  Format format = Format::kText;
  int corrupt_node = -1;
  bool cost = false;
  PlanSearchMode search_mode = PlanSearchMode::kOff;
  int beam_width = 8;
  std::string calibration_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workers") {
      const char* v = next_value();
      if (!v) return Usage(argv[0]);
      num_workers = std::atoi(v);
    } else if (arg == "--cost") {
      cost = true;
    } else if (arg == "--plan-search" || arg.rfind("--plan-search=", 0) == 0) {
      std::string mode;
      if (arg == "--plan-search") {
        const char* v = next_value();
        if (!v) return Usage(argv[0]);
        mode = v;
      } else {
        mode = arg.substr(std::string("--plan-search=").size());
      }
      auto parsed = ParsePlanSearchMode(mode);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return Usage(argv[0]);
      }
      search_mode = *parsed;
    } else if (arg == "--beam-width") {
      const char* v = next_value();
      if (!v) return Usage(argv[0]);
      beam_width = std::atoi(v);
      if (beam_width < 1) return Usage(argv[0]);
    } else if (arg == "--calibration") {
      const char* v = next_value();
      if (!v) return Usage(argv[0]);
      calibration_path = v;
    } else if (arg == "--baseline") {
      baseline = true;
    } else if (arg == "--no-plan") {
      no_plan = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--format=text") {
      format = Format::kText;
    } else if (arg == "--format=json") {
      format = Format::kJson;
    } else if (arg == "--corrupt-node") {
      const char* v = next_value();
      if (!v) return Usage(argv[0]);
      corrupt_node = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }

  std::ifstream file(script_path);
  if (!file) {
    if (format == Format::kJson) {
      return FrontendError(format, script_path, "io",
                           Status::NotFound("cannot open " + script_path));
    }
    std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto program = ParseProgram(buffer.str());
  if (!program.ok()) {
    return FrontendError(format, script_path, "parse", program.status());
  }
  auto ops = Decompose(*program);
  if (!ops.ok()) {
    return FrontendError(format, script_path, "decompose", ops.status());
  }

  // Operator-level analysis first: if the program itself is malformed the
  // planner cannot run, so report what the passes found and stop.
  AnalysisReport ops_report = AnalyzeProgram(&*ops, nullptr, num_workers);
  if (no_plan || ops_report.HasErrors()) {
    if (format == Format::kJson) {
      PrintJson(script_path, "operators", ops_report);
    } else {
      std::printf("%s (operators): %s", script_path.c_str(),
                  ops_report.ToString().c_str());
    }
    return ExitCode(ops_report, werror);
  }

  PlannerOptions popts;
  popts.num_workers = num_workers;
  popts.exploit_dependencies = !baseline;
  popts.verify_plan = false;  // lint reports diagnostics itself
  auto plan = GeneratePlan(*ops, popts);
  if (!plan.ok()) {
    return FrontendError(format, script_path, "plan", plan.status());
  }

  if (corrupt_node >= 0) {
    if (corrupt_node >= static_cast<int>(plan->nodes.size())) {
      std::fprintf(stderr, "--corrupt-node %d: plan has only %zu nodes\n",
                   corrupt_node, plan->nodes.size());
      return 2;
    }
    PlanNode& node = plan->nodes[corrupt_node];
    const Scheme old_scheme = SchemeSetFirst(node.schemes);
    const Scheme new_scheme = old_scheme == Scheme::kBroadcast
                                  ? Scheme::kRow
                                  : OppositeScheme(old_scheme);
    node.schemes = SchemeBit(new_scheme);
    std::fprintf(stderr, "note: corrupted node %d (%s): scheme %c -> %c\n",
                 corrupt_node, node.matrix.c_str(), SchemeChar(old_scheme),
                 SchemeChar(new_scheme));
  }

  AnalysisReport report = AnalyzeProgram(&*ops, &*plan, num_workers);

  // --cost / --plan-search ride the lint run: text renders after the
  // diagnostics, JSON splices extra objects into the same document.
  std::string extra;
  CalibrationTable table = CalibrationTable::Builtin();
  if (cost || search_mode != PlanSearchMode::kOff) {
    if (!calibration_path.empty()) {
      auto loaded = CalibrationTable::Load(calibration_path);
      if (!loaded.ok()) {
        return FrontendError(format, script_path, "calibration",
                             loaded.status());
      }
      table = std::move(*loaded);
    }
  }
  CostModelOptions mopts;
  mopts.num_workers = num_workers;
  CostModel model(std::move(table), mopts);
  PlanCost plan_cost;
  SearchResult sres;
  if (cost) plan_cost = model.EstimatePlan(*plan);
  if (search_mode != PlanSearchMode::kOff) {
    SearchOptions sopts;
    sopts.mode = search_mode;
    sopts.beam_width = beam_width;
    auto searched = SearchPlans(*ops, popts, sopts, model);
    if (!searched.ok()) {
      return FrontendError(format, script_path, "plan-search",
                           searched.status());
    }
    sres = std::move(*searched);
  }

  if (format == Format::kJson) {
    if (cost) extra += CostJson(*plan, model, plan_cost);
    if (search_mode != PlanSearchMode::kOff) {
      extra += SearchJson(sres, search_mode, beam_width);
    }
    PrintJson(script_path, "plan", report, extra);
  } else {
    std::printf("%s: %s", script_path.c_str(), report.ToString().c_str());
    if (cost) PrintCostText(*plan, model, plan_cost);
    if (search_mode != PlanSearchMode::kOff) {
      PrintSearchText(sres, search_mode, beam_width);
    }
  }
  return ExitCode(report, werror);
}
