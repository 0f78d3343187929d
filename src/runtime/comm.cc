#include "runtime/comm.h"

#include <algorithm>
#include <string>
#include <utility>

namespace dmac {

Result<DistMatrix::BlockPtr> CommLayer::ReadBlock(const DistMatrix& src,
                                                  int worker, int64_t bi,
                                                  int64_t bj,
                                                  const char* what) const {
  auto ptr = src.Get(worker, bi, bj);
  if (ptr == nullptr) {
    return Status::DataLoss(std::string(what) + ": block (" +
                            std::to_string(bi) + ", " + std::to_string(bj) +
                            ") missing on worker " + std::to_string(worker));
  }
  if (fault_) DMAC_RETURN_NOT_OK(src.VerifyAt(worker, bi, bj));
  return ptr;
}

Status CommLayer::Replicate(DistMatrix* dm) const {
  for (int64_t bi = 0; bi < dm->grid().block_rows(); ++bi) {
    for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
      auto ptr = dm->Get(0, bi, bj);
      if (ptr == nullptr) {
        return Status::Internal("broadcast result missing block");
      }
      for (int w = 1; w < num_workers_; ++w) dm->Put(w, bi, bj, ptr);
    }
  }
  return Status::Ok();
}

Status CommLayer::ShuffleToOwners(
    const PlanStep& step, const char* name, const DistMatrix& c,
    std::vector<std::vector<Partial>>* partials,
    const std::function<Status()>& poll_cancel,
    std::vector<std::vector<Partial>>* incoming) {
  incoming->assign(static_cast<size_t>(num_workers_), {});
  CommRound round(this, name, CommKind::kShuffle);
  for (std::vector<Partial>& local : *partials) {
    // Pool threads complete tasks in nondeterministic order; sort by
    // output block so the send order — and with it the network layer's
    // fault-draw schedule — is a pure function of the plan and seed.
    std::sort(local.begin(), local.end(),
              [](const Partial& x, const Partial& y) {
                return std::pair(x.bi, x.bj) < std::pair(y.bi, y.bj);
              });
    for (Partial& p : local) {
      const int dst = c.OwnerOf(p.bi, p.bj);
      const double block_bytes = static_cast<double>(p.block->MemoryBytes());
      const int from = p.from;  // read before the capture moves p
      round.Send(from, dst, block_bytes,
                 [incoming, dst, p = std::move(p)]() mutable {
                   (*incoming)[static_cast<size_t>(dst)].push_back(
                       std::move(p));
                 });
    }
  }
  // Partials are in flight: a worker may die here (death_in_flight).
  if (fault_) fault_->AtShuffleBoundary(step);
  DMAC_RETURN_NOT_OK(poll_cancel());
  return round.End();
}

CommRound::CommRound(CommLayer* comm, const char* name, CommKind kind,
                     std::string_view subject)
    : comm_(comm),
      name_(name),
      kind_(kind),
      span_(!TraceRecorder::Global().enabled() ? TraceSpan()
            : subject.empty()
                ? TraceSpan(kTraceComm, name)
                : TraceSpan(kTraceComm,
                            std::string(name) + " " + std::string(subject))) {}

Status CommRound::End() {
  const bool broadcast = kind_ == CommKind::kBroadcast;
  ExecStats& stats = *comm_->stats_;
  (broadcast ? stats.broadcast_bytes : stats.shuffle_bytes) += bytes_;
  (broadcast ? stats.broadcast_events : stats.shuffle_events) += rounds_;
  if (span_.active()) {
    span_.set_args(TraceArg("bytes", bytes_) + "," +
                   TraceArg("kind", broadcast ? "broadcast" : "shuffle"));
  }
  SimNetwork* net = comm_->network();
  return net != nullptr ? net->Flush(name_) : Status::Ok();
}

}  // namespace dmac
