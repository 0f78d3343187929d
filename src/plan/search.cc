#include "plan/search.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/analyzer.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmac {

namespace {

/// One axis of the search space.
struct Decision {
  enum class Kind : uint8_t { kHeuristics, kFusion, kGroup };
  Kind kind = Kind::kGroup;
  /// kGroup: operators sharing this signature, in program order. All of
  /// them are forced to the same candidate index.
  std::vector<int> op_ids;
  int num_options = 2;
  std::string label;
  std::vector<std::string> option_names;
};

/// SSA base: "W#3" → "W" (iteration versions share a decision). Compiler
/// temporaries ("_t12", "_s3") are numbered fresh every unrolled iteration,
/// so their digits are stripped too — "_t12" → "_t" — or no two iterations
/// would ever share a signature.
std::string BaseName(const std::string& ssa) {
  std::string base = ssa.substr(0, ssa.find('#'));
  if (base.size() > 2 && base[0] == '_' &&
      (base[1] == 't' || base[1] == 's') &&
      base.find_first_not_of("0123456789", 2) == std::string::npos) {
    base.resize(2);
  }
  return base;
}

/// Operators with the same signature repeat the same computation in later
/// iterations of an unrolled loop and share one strategy decision.
std::string SignatureOf(const Operator& op) {
  std::string sig = std::to_string(static_cast<int>(op.kind));
  sig += '|';
  sig += BaseName(op.output);
  for (const MatrixRef& in : op.inputs) {
    sig += '|';
    sig += BaseName(in.name);
    if (in.transposed) sig += '\'';
  }
  if (!op.source.empty()) {
    sig += '|';
    sig += op.source;
  }
  return sig;
}

const char* SchemeWord(Scheme s) {
  switch (s) {
    case Scheme::kRow: return "row";
    case Scheme::kCol: return "col";
    case Scheme::kBroadcast: return "bcast";
  }
  return "?";
}

/// True for operators whose strategy choice the search enumerates: every
/// multiplication (RMM1/RMM2/CPMM) and every leaf placement (load/random:
/// row, column, broadcast).
bool Searchable(const Operator& op) {
  return op.kind == OpKind::kMultiply || op.kind == OpKind::kLoad ||
         op.kind == OpKind::kRandom;
}

std::vector<Decision> BuildDecisions(const OperatorList& ops) {
  std::vector<Decision> decisions;
  {
    Decision heur;
    heur.kind = Decision::Kind::kHeuristics;
    heur.num_options = 2;
    heur.label = "heur";
    heur.option_names = {"on", "off"};
    decisions.push_back(std::move(heur));
    Decision fuse;
    fuse.kind = Decision::Kind::kFusion;
    fuse.num_options = 2;
    fuse.label = "fuse";
    fuse.option_names = {"on", "off"};
    decisions.push_back(std::move(fuse));
  }
  std::unordered_map<std::string, size_t> group_of;
  for (const Operator& op : ops.ops) {
    if (!Searchable(op)) continue;
    const std::vector<Strategy> candidates = CandidateStrategies(op);
    if (candidates.size() < 2) continue;
    // Same-signature ops must also agree on the candidate count (digit
    // stripping can merge same-shaped expressions over different-shaped
    // operands) or a forced index could fall out of range for one of them.
    const std::string sig =
        SignatureOf(op) + '|' + std::to_string(candidates.size());
    auto it = group_of.find(sig);
    if (it != group_of.end()) {
      decisions[it->second].op_ids.push_back(op.id);
      continue;
    }
    Decision d;
    d.kind = Decision::Kind::kGroup;
    d.op_ids = {op.id};
    d.num_options = static_cast<int>(candidates.size());
    if (op.kind == OpKind::kMultiply) {
      d.label = BaseName(op.output) + "=" + BaseName(op.inputs[0].name) +
                (op.inputs[0].transposed ? "'" : "") + "*" +
                BaseName(op.inputs[1].name) +
                (op.inputs[1].transposed ? "'" : "");
      for (const Strategy& st : candidates) {
        d.option_names.push_back(MultAlgoName(st.mult_algo));
      }
    } else {
      d.label = BaseName(op.output);
      for (const Strategy& st : candidates) {
        d.option_names.push_back(SchemeWord(SchemeSetFirst(st.out_schemes)));
      }
    }
    group_of.emplace(sig, decisions.size());
    decisions.push_back(std::move(d));
  }
  return decisions;
}

/// Scoring window: the prefix through the second occurrence of every
/// signature (first when a signature occurs once). An unrolled iterative
/// program is scored on its first ~two iterations — the steady state every
/// later iteration repeats — which keeps beam scoring O(window), not
/// O(program). Non-repetitive programs get the whole program.
size_t WindowLength(const OperatorList& ops) {
  std::unordered_map<std::string, int> occurrences;
  size_t cut = 0;
  for (size_t i = 0; i < ops.ops.size(); ++i) {
    const int n = ++occurrences[SignatureOf(ops.ops[i])];
    if (n <= 2) cut = i + 1;
  }
  return cut;
}

/// A partial or complete assignment of options to decisions (prefix order).
using Assignment = std::vector<int>;

struct ScoredState {
  Assignment assignment;
  double seconds = 0;
  double comm_bytes = 0;
};

bool BetterScore(const ScoredState& a, const ScoredState& b) {
  if (a.seconds != b.seconds) return a.seconds < b.seconds;
  return a.comm_bytes < b.comm_bytes;
}

class Searcher {
 public:
  Searcher(const OperatorList& ops, const PlannerOptions& base,
           const SearchOptions& options, const CostModel& model)
      : ops_(ops), base_(base), options_(options), model_(model) {}

  Result<SearchResult> Run() {
    Timer timer;
    TraceSpan span(kTraceSearch, "plan-search");
    decisions_ = BuildDecisions(ops_);
    stats_.decisions = static_cast<int64_t>(decisions_.size());

    window_.ops.assign(ops_.ops.begin(),
                       ops_.ops.begin() +
                           static_cast<ptrdiff_t>(WindowLength(ops_)));

    DMAC_ASSIGN_OR_RETURN(std::vector<Assignment> finalists, Enumerate());

    SearchResult result;
    result.stats = stats_;

    // The unforced Algorithm-1 plan is always candidate #0 before ranking:
    // the stable sort below keeps it ahead on exact cost ties, so a search
    // that finds nothing better returns the greedy plan itself (and
    // executing the winner is then bit-identical to a search-off run).
    DMAC_ASSIGN_OR_RETURN(PlanCandidate greedy,
                          Finalize(Assignment(), /*greedy=*/true));
    result.candidates.push_back(std::move(greedy));
    std::unordered_set<std::string> seen;
    seen.insert(result.candidates[0].plan.ToString());

    for (const Assignment& a : finalists) {
      Result<PlanCandidate> cand = Finalize(a, /*greedy=*/false);
      if (!cand.ok()) {
        ++stats_.rejected;
        continue;
      }
      if (!seen.insert(cand->plan.ToString()).second) continue;
      result.candidates.push_back(*std::move(cand));
    }
    std::stable_sort(result.candidates.begin(), result.candidates.end(),
                     [](const PlanCandidate& a, const PlanCandidate& b) {
                       if (a.cost.seconds() != b.cost.seconds()) {
                         return a.cost.seconds() < b.cost.seconds();
                       }
                       return a.cost.comm_bytes < b.cost.comm_bytes;
                     });

    stats_.seconds = timer.ElapsedSeconds();
    result.stats = stats_;
    ExportMetrics(result);
    return result;
  }

 private:
  /// Planner options realizing `assignment` (decisions beyond its length
  /// stay at the base/greedy behavior).
  PlannerOptions Materialize(const Assignment& assignment) const {
    PlannerOptions opts = base_;
    opts.verify_plan = false;  // finalists go through VerifyPlan explicitly
    for (size_t i = 0; i < assignment.size(); ++i) {
      const Decision& d = decisions_[i];
      switch (d.kind) {
        case Decision::Kind::kHeuristics:
          opts.pull_up_broadcast = assignment[i] == 0;
          opts.reassignment = assignment[i] == 0;
          break;
        case Decision::Kind::kFusion:
          opts.fuse_transposes = assignment[i] == 0;
          break;
        case Decision::Kind::kGroup:
          for (int id : d.op_ids) opts.forced_strategies[id] = assignment[i];
          break;
      }
    }
    return opts;
  }

  /// Scores a partial assignment on the window program. Returns an error
  /// when the forced combination cannot be planned at all.
  Result<ScoredState> Score(Assignment assignment) {
    ++stats_.planned;
    DMAC_ASSIGN_OR_RETURN(Plan plan,
                          GeneratePlan(window_, Materialize(assignment)));
    const PlanCost cost = model_.EstimatePlan(plan);
    ScoredState s;
    s.assignment = std::move(assignment);
    s.seconds = cost.seconds();
    s.comm_bytes = cost.comm_bytes;
    return s;
  }

  /// Beam or exhaustive enumeration over the decision axes; returns
  /// complete assignments ranked by window score, best first, at most
  /// beam_width of them.
  Result<std::vector<Assignment>> Enumerate() {
    std::vector<ScoredState> frontier;
    {
      DMAC_ASSIGN_OR_RETURN(ScoredState root, Score(Assignment()));
      frontier.push_back(std::move(root));
    }
    const bool exhaustive = options_.mode == PlanSearchMode::kExhaustive;
    if (exhaustive) {
      double space = 1;
      for (const Decision& d : decisions_) space *= d.num_options;
      if (space > static_cast<double>(options_.max_exhaustive)) {
        return Status::Invalid(
            "plan search: exhaustive space of " +
            std::to_string(static_cast<int64_t>(space)) +
            " assignments exceeds the cap of " +
            std::to_string(options_.max_exhaustive) + "; use beam mode");
      }
    }
    const size_t keep =
        static_cast<size_t>(std::max(options_.beam_width, 1));

    for (size_t level = 0; level < decisions_.size(); ++level) {
      std::vector<ScoredState> next;
      for (const ScoredState& state : frontier) {
        for (int opt = 0; opt < decisions_[level].num_options; ++opt) {
          Assignment extended = state.assignment;
          extended.push_back(opt);
          Result<ScoredState> scored = Score(std::move(extended));
          if (!scored.ok()) {
            ++stats_.rejected;
            continue;
          }
          next.push_back(*std::move(scored));
        }
      }
      if (next.empty()) {
        return Status::Internal(
            "plan search: no candidate survived decision level " +
            std::to_string(level) + " (" + decisions_[level].label + ")");
      }
      std::stable_sort(next.begin(), next.end(), BetterScore);
      if (!exhaustive && next.size() > keep) next.resize(keep);
      frontier = std::move(next);
    }

    // Exhaustive mode ranks the full cross product by the same window
    // score, then hands the identical top slice to full-program costing —
    // on programs the window covers entirely, beam and exhaustive agree
    // whenever beam kept the optimum in its frontier.
    if (frontier.size() > keep) frontier.resize(keep);
    std::vector<Assignment> finalists;
    finalists.reserve(frontier.size());
    for (ScoredState& s : frontier) {
      finalists.push_back(std::move(s.assignment));
    }
    return finalists;
  }

  /// Full-program plan + static verification + cost for one assignment.
  Result<PlanCandidate> Finalize(const Assignment& assignment, bool greedy) {
    ++stats_.planned;
    DMAC_ASSIGN_OR_RETURN(Plan plan,
                          GeneratePlan(ops_, Materialize(assignment)));
    ++stats_.verified;
    DMAC_RETURN_NOT_OK(VerifyPlan(ops_, plan, base_.num_workers,
                                  base_.min_workers, base_.resume));
    PlanCandidate cand;
    cand.cost = model_.EstimatePlan(plan);
    cand.plan = std::move(plan);
    cand.greedy = greedy;
    cand.decisions = Describe(assignment);
    return cand;
  }

  std::string Describe(const Assignment& assignment) const {
    if (assignment.empty()) return "greedy";
    std::string out;
    for (size_t i = 0; i < assignment.size(); ++i) {
      if (!out.empty()) out += ' ';
      out += decisions_[i].label + "=" +
             decisions_[i].option_names[static_cast<size_t>(assignment[i])];
    }
    return out;
  }

  void ExportMetrics(const SearchResult& result) const {
    auto& registry = MetricRegistry::Global();
    static Counter* candidates =
        registry.counter(kMetricPlanSearchCandidates);
    static Counter* planned = registry.counter(kMetricPlanSearchPlanned);
    static Counter* rejected = registry.counter(kMetricPlanSearchRejected);
    static Gauge* seconds = registry.gauge(kMetricPlanSearchSeconds);
    candidates->Add(static_cast<int64_t>(result.candidates.size()));
    planned->Add(stats_.planned);
    rejected->Add(stats_.rejected);
    seconds->Set(stats_.seconds);
  }

  const OperatorList& ops_;
  const PlannerOptions& base_;
  const SearchOptions& options_;
  const CostModel& model_;
  std::vector<Decision> decisions_;
  OperatorList window_;
  SearchStats stats_;
};

}  // namespace

const char* PlanSearchModeName(PlanSearchMode mode) {
  switch (mode) {
    case PlanSearchMode::kOff: return "off";
    case PlanSearchMode::kBeam: return "beam";
    case PlanSearchMode::kExhaustive: return "exhaustive";
  }
  return "?";
}

Result<PlanSearchMode> ParsePlanSearchMode(const std::string& name) {
  if (name == "off") return PlanSearchMode::kOff;
  if (name == "beam") return PlanSearchMode::kBeam;
  if (name == "exhaustive") return PlanSearchMode::kExhaustive;
  return Status::Invalid("unknown plan-search mode '" + name +
                         "' (expected off, beam, or exhaustive)");
}

Result<SearchResult> SearchPlans(const OperatorList& ops,
                                 const PlannerOptions& base,
                                 const SearchOptions& options,
                                 const CostModel& model) {
  if (!base.forced_strategies.empty()) {
    return Status::Invalid(
        "plan search: base PlannerOptions already force strategies");
  }
  if (options.mode == PlanSearchMode::kOff) {
    return Status::Invalid("plan search invoked with mode=off");
  }
  return Searcher(ops, base, options, model).Run();
}

}  // namespace dmac
