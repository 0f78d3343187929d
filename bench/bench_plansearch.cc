// Cost-based plan search vs greedy Algorithm 1 (ROADMAP item 2).
//
// For GNMF (Netflix-shaped, §6.2) and PageRank (§6.4), runs 10 iterations
// planned two ways — greedy, and beam plan search over multiply algorithms /
// leaf schemes / heuristic toggles — and reports estimated seconds,
// estimated communication, measured wall time, and the search's driver
// overhead relative to one execution iteration. Emits BENCH_plansearch.json
// (schema dmac-plansearch-v1; override with --out=PATH). --calibration FILE
// prices candidates with measured kernel rates (CALIBRATION.json) instead
// of the built-in defaults; --scale S scales the workloads like the other
// figure benchmarks (DMAC_BENCH_SCALE also applies).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/gnmf.h"
#include "apps/pagerank.h"
#include "apps/runner.h"
#include "bench_util.h"
#include "common/json.h"
#include "data/netflix_gen.h"
#include "data/synthetic.h"
#include "runtime/block_size.h"

using namespace dmac;
using namespace dmac::bench;

namespace {

struct WorkloadResult {
  std::string name;
  int iterations = 0;
  double greedy_est_seconds = 0;
  double greedy_est_comm_bytes = 0;
  double greedy_wall_seconds = 0;
  double searched_est_seconds = 0;
  double searched_est_comm_bytes = 0;
  double searched_wall_seconds = 0;
  double search_seconds = 0;
  int64_t candidates = 0;
  std::string decisions;

  /// Search driver time over one measured execution iteration.
  double OverheadVsIteration() const {
    const double per_iter = greedy_wall_seconds / iterations;
    return per_iter > 0 ? search_seconds / per_iter : 0;
  }
};

int RunWorkload(const std::string& name, const Program& program,
                const Bindings& bindings, int64_t block_size, int iterations,
                const std::string& calibration, bool strict,
                WorkloadResult* out) {
  RunConfig greedy_cfg;
  greedy_cfg.block_size = block_size;
  RunConfig search_cfg = greedy_cfg;
  search_cfg.plan_search = PlanSearchMode::kBeam;
  search_cfg.calibration_path = calibration;

  auto greedy = RunProgram(program, bindings, greedy_cfg);
  if (!greedy.ok()) {
    std::fprintf(stderr, "%s greedy: %s\n", name.c_str(),
                 greedy.status().ToString().c_str());
    return 1;
  }
  auto searched = RunProgram(program, bindings, search_cfg);
  if (!searched.ok()) {
    std::fprintf(stderr, "%s searched: %s\n", name.c_str(),
                 searched.status().ToString().c_str());
    return 1;
  }

  out->name = name;
  out->iterations = iterations;
  out->greedy_est_seconds = searched->search.greedy_seconds;
  out->greedy_est_comm_bytes = searched->search.greedy_comm_bytes;
  out->greedy_wall_seconds = greedy->execute_seconds;
  out->searched_est_seconds = searched->search.best_seconds;
  out->searched_est_comm_bytes = searched->search.best_comm_bytes;
  out->searched_wall_seconds = searched->execute_seconds;
  out->search_seconds = searched->search.seconds;
  out->candidates = searched->search.candidates;
  out->decisions = searched->search.best_decisions;

  // Ranking is by estimated seconds; at paper-like scale that winner also
  // communicates less (the committed BENCH_plansearch.json is generated
  // with --strict to enforce it), but a shrunken smoke run may legally
  // trade comm for compute.
  if (out->searched_est_comm_bytes > out->greedy_est_comm_bytes + 1e-6) {
    std::fprintf(stderr,
                 "%s: searched plan estimates MORE comm than greedy "
                 "(%.0f > %.0f)%s\n",
                 name.c_str(), out->searched_est_comm_bytes,
                 out->greedy_est_comm_bytes,
                 strict ? "" : " [non-strict: continuing]");
    return strict ? 1 : 0;
  }
  return 0;
}

void PrintResult(const WorkloadResult& r) {
  std::printf("%-9s | est %7.3fs -> %7.3fs | comm %9s -> %9s | "
              "wall %6.2fs -> %6.2fs | search %5.1fms (%.1f%% of an iter)\n",
              r.name.c_str(), r.greedy_est_seconds, r.searched_est_seconds,
              HumanBytes(r.greedy_est_comm_bytes).c_str(),
              HumanBytes(r.searched_est_comm_bytes).c_str(),
              r.greedy_wall_seconds, r.searched_wall_seconds,
              r.search_seconds * 1e3, r.OverheadVsIteration() * 100);
  std::printf("          | plan: %s\n", r.decisions.c_str());
}

std::string ResultJson(const WorkloadResult& r) {
  char buf[512];
  std::string out = "    {\"name\": " + JsonQuote(r.name) + ",\n";
  std::snprintf(buf, sizeof(buf),
                "     \"iterations\": %d,\n"
                "     \"greedy\": {\"est_seconds\": %.6f, "
                "\"est_comm_bytes\": %.0f, \"wall_seconds\": %.4f},\n"
                "     \"searched\": {\"est_seconds\": %.6f, "
                "\"est_comm_bytes\": %.0f, \"wall_seconds\": %.4f},\n"
                "     \"search_seconds\": %.6f,\n"
                "     \"search_overhead_vs_iteration\": %.4f,\n"
                "     \"candidates\": %lld,\n",
                r.iterations, r.greedy_est_seconds, r.greedy_est_comm_bytes,
                r.greedy_wall_seconds, r.searched_est_seconds,
                r.searched_est_comm_bytes, r.searched_wall_seconds,
                r.search_seconds, r.OverheadVsIteration(),
                static_cast<long long>(r.candidates));
  out += buf;
  out += "     \"decisions\": " + JsonQuote(r.decisions) + "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs;
  std::string out_path = "BENCH_plansearch.json";
  std::string calibration;
  double scale_div = 16;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--calibration=", 14) == 0) {
      calibration = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale_div = std::atof(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=PATH] [--calibration=FILE] "
                   "[--scale=DIV] [--strict]\n",
                   argv[0]);
      return 2;
    }
  }

  const double scale = ScaleFactor(scale_div);
  const int iterations = 10;
  PrintHeader("Plan search vs greedy (10 iterations, calibration=" +
              (calibration.empty() ? std::string("builtin") : calibration) +
              ")");

  std::vector<WorkloadResult> results;

  {
    NetflixSpec spec = NetflixSpec{}.Scaled(scale);
    const int64_t factors =
        std::max<int64_t>(8, static_cast<int64_t>(200 / scale) * 4);
    const int64_t bs = ChooseBlockSize({spec.users, spec.movies}, 4, 2);
    GnmfConfig config{spec.users, spec.movies, spec.sparsity, factors,
                      iterations};
    LocalMatrix v = NetflixRatings(spec, bs, 42);
    Bindings bindings{{"V", &v}};
    WorkloadResult r;
    if (RunWorkload("gnmf", BuildGnmfProgram(config), bindings, bs,
                    iterations, calibration, strict, &r) != 0) {
      return 1;
    }
    PrintResult(r);
    results.push_back(std::move(r));
  }

  {
    const int64_t nodes = std::max<int64_t>(
        512, static_cast<int64_t>(10485760 / scale));
    const double sparsity = 10.0 / static_cast<double>(nodes);
    const int64_t bs = ChooseBlockSize({nodes, nodes}, 4, 2);
    PageRankConfig config{nodes, sparsity, iterations, 0.85};
    LocalMatrix link = SyntheticSparse(nodes, nodes, sparsity, bs, 7);
    LocalMatrix d = SyntheticDense(1, nodes, bs, 9);
    Bindings bindings{{"link", &link}, {"D", &d}};
    WorkloadResult r;
    if (RunWorkload("pagerank", BuildPageRankProgram(config), bindings, bs,
                    iterations, calibration, strict, &r) != 0) {
      return 1;
    }
    PrintResult(r);
    results.push_back(std::move(r));
  }

  std::string json = "{\n  \"schema\": \"dmac-plansearch-v1\",\n";
  json += "  \"scale_divisor\": " + std::to_string(scale) + ",\n";
  json += "  \"calibration\": " +
          JsonQuote(calibration.empty() ? std::string("builtin")
                                        : calibration) +
          ",\n";
  json += "  \"workloads\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    json += ResultJson(results[i]);
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
