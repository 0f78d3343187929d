#include "workloads.h"

#include "apps/collab_filter.h"
#include "apps/gnmf.h"
#include "apps/pagerank.h"
#include "data/graph_gen.h"
#include "data/netflix_gen.h"
#include "data/synthetic.h"

namespace dmac::e2e {

namespace {

std::string ShapeText(const LocalMatrix& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
         " nnz " + std::to_string(m.Nnz());
}

/// Sets the program and picks the block size the way dmac_run does.
Status Finish(Workload* w, Program program) {
  w->program = std::move(program);
  DMAC_ASSIGN_OR_RETURN(
      w->config.block_size,
      ChooseProgramBlockSize(w->program, w->config.num_workers,
                             w->config.threads_per_worker));
  return Status::Ok();
}

void Bind(Workload* w, const std::string& name, LocalMatrix m) {
  if (!w->description.empty()) w->description += ", ";
  w->description += name + " " + ShapeText(m);
  auto [it, inserted] = w->inputs.insert_or_assign(name, std::move(m));
  w->bindings[name] = &it->second;
}

/// GNMF over a Netflix-shaped V (users/`scale` × movies/`scale`).
Status MakeGnmf(Workload* w, double scale, int64_t factors,
                const WorkloadOptions& o) {
  const NetflixSpec spec = NetflixSpec{}.Scaled(scale * o.size_divisor);
  GnmfConfig gc{spec.users, spec.movies, spec.sparsity,
                std::max<int64_t>(4, factors / o.size_divisor), 10};
  DMAC_RETURN_NOT_OK(Finish(w, BuildGnmfProgram(gc)));
  Bind(w, "V", NetflixRatings(spec, w->config.block_size, o.seed + 1));
  return Status::Ok();
}

/// soc-Pokec-shaped power-law graph / 5 (326,560 nodes, 6.1M edges), 30
/// iterations.
Status MakePageRank(Workload* w, const WorkloadOptions& o) {
  const GraphSpec spec = SocPokec().Scaled(5.0 * o.size_divisor);
  const double nodes = static_cast<double>(spec.nodes);
  PageRankConfig pc{spec.nodes, static_cast<double>(spec.edges) / nodes / nodes,
                    30, 0.85};
  DMAC_RETURN_NOT_OK(Finish(w, BuildPageRankProgram(pc)));
  const int64_t bs = w->config.block_size;
  Bind(w, "link", RowNormalizedLink(spec, bs, o.seed + 1));
  Bind(w, "D", ConstantMatrix({1, spec.nodes}, bs,
                              1.0f / static_cast<Scalar>(spec.nodes)));
  return Status::Ok();
}

/// Netflix-shaped R / 12, items x users (1,480 x 40,015).
Status MakeCollabFilter(Workload* w, const WorkloadOptions& o) {
  const NetflixSpec spec = NetflixSpec{}.Scaled(12.0 * o.size_divisor);
  CollabFilterConfig cc{spec.movies, spec.users, spec.sparsity};
  DMAC_RETURN_NOT_OK(Finish(w, BuildCollabFilterProgram(cc)));
  Bind(w, "R",
       NetflixRatings(spec, w->config.block_size, o.seed + 1).Transposed());
  return Status::Ok();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"gnmf-search", "pagerank",
                                                 "cf"};
  return names;
}

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               const WorkloadOptions& options) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->config.seed = options.seed;
  // Sizes keep one run between 0.3 and 1 s, so a 30 s window holds 30-80
  // runs, and keep peak tracked memory under 1 GB.
  if (name == "gnmf-search") {
    // 30,011 x 1,110, k = 64: ~17k small dense block tasks per run, and the
    // only workload whose plan comes from the cost model and beam search.
    w->config.plan_search = PlanSearchMode::kBeam;
    w->config.calibration_path = options.calibration_path;
    DMAC_RETURN_NOT_OK(MakeGnmf(w.get(), 16, 64, options));
  } else if (name == "pagerank") {
    DMAC_RETURN_NOT_OK(MakePageRank(w.get(), options));
  } else if (name == "cf") {
    DMAC_RETURN_NOT_OK(MakeCollabFilter(w.get(), options));
  } else {
    return Status::Invalid("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace dmac::e2e
