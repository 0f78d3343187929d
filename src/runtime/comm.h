// The comm layer: every cross-worker block move is a Send inside a
// CommRound, the one place bytes are counted (paper §4.1, Fig. 6(b)). A
// send counts exactly when the two slots' hosts differ; the charges that
// ignore hosts (load, same-scheme hash shuffle, reduce) are explicit calls.
// Without a fault layer hosts are the identity and a send delivers inline
// through a templated callable (no std::function, no allocation); with one,
// hosts follow deaths, reads verify checksums and cross-slot sends queue on
// the simulated network until the round ends (docs/fault_tolerance.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/exec_stats.h"
#include "obs/trace.h"
#include "runtime/dist_matrix.h"
#include "runtime/fault_layer.h"

namespace dmac {

/// The ExecStats account a round charges, and its comm span's `kind`.
enum class CommKind { kShuffle, kBroadcast };

/// A partial block of output block (bi, bj), computed by worker `from`.
struct Partial {
  int64_t bi;
  int64_t bj;
  DistMatrix::BlockPtr block;
  int from;
};

/// Hosts, reads and replication shared by every round of one run.
class CommLayer {
 public:
  CommLayer(int num_workers, ExecStats* stats)
      : num_workers_(num_workers), stats_(stats) {}

  /// Routes later rounds through `fault` (null: identity hosts, inline
  /// delivery), which must outlive them.
  void set_fault_layer(FaultLayer* fault) { fault_ = fault; }

  /// Physical host of logical slot `w` (identity until a death).
  int HostOf(int w) const { return fault_ ? fault_->HostOf(w) : w; }

  /// Block (bi, bj) of `src` on `worker`, checksum-verified in
  /// fault-tolerant runs; DataLoss naming `what` when it is missing.
  Result<DistMatrix::BlockPtr> ReadBlock(const DistMatrix& src, int worker,
                                         int64_t bi, int64_t bj,
                                         const char* what) const;

  /// Shares worker 0's blocks with every other replica of a Broadcast
  /// matrix: pointer copies, no bytes.
  Status Replicate(DistMatrix* dm) const;

  /// The exchange of shuffle-and-sum, one shuffle round named `name`:
  /// sorts each worker's partials by block key and sends them to their
  /// owners in `c`, into `(*incoming)[owner]`. The fault layer's
  /// shuffle-boundary hook and `poll_cancel` run between sends and flush.
  Status ShuffleToOwners(const PlanStep& step, const char* name,
                         const DistMatrix& c,
                         std::vector<std::vector<Partial>>* partials,
                         const std::function<Status()>& poll_cancel,
                         std::vector<std::vector<Partial>>* incoming);

 private:
  friend class CommRound;

  SimNetwork* network() const { return fault_ ? fault_->network() : nullptr; }

  int num_workers_;
  ExecStats* stats_;
  FaultLayer* fault_ = nullptr;
};

/// One communication round. A round dropped without End() counts nothing;
/// the fault layer clears what it queued before the next attempt.
class CommRound {
 public:
  /// Opens the round's comm span, named `name` or "name subject".
  CommRound(CommLayer* comm, const char* name, CommKind kind,
            std::string_view subject = {});

  /// Moves a block of `bytes` from slot `from` to slot `to`; `deliver`
  /// stores it, now or at End(), so its captures must outlive End().
  template <typename Deliver>
  void Send(int from, int to, double bytes, Deliver&& deliver) {
    if (comm_->HostOf(from) != comm_->HostOf(to)) bytes_ += bytes;
    SimNetwork* net = comm_->network();
    if (net != nullptr && from != to) {
      net->Send(from, to, bytes, std::forward<Deliver>(deliver));
    } else {
      deliver();
    }
  }

  /// A block read from storage: its bytes once per copy, N under
  /// Broadcast, whatever the host.
  void ChargeLoad(double block_bytes) {
    bytes_ += block_bytes *
              (kind_ == CommKind::kBroadcast ? comm_->num_workers_ : 1);
  }

  /// A repartition onto the same scheme (SystemML-S's hash shuffle of an
  /// aligned matrix) keeps placement, but a real hash shuffle moves an
  /// expected (N-1)/N of every block.
  void ChargeHashShuffle(double block_bytes) {
    const double hash_fraction =
        static_cast<double>(comm_->num_workers_ - 1) / comm_->num_workers_;
    bytes_ += block_bytes * hash_fraction;
  }

  /// A reduce's N partial doubles go to the driver, piggybacked on the
  /// stage boundary: bytes, but no round.
  void ChargeReduce() {
    bytes_ += 8.0 * comm_->num_workers_;
    rounds_ = 0;
  }

  /// Sets the span's `bytes` and `kind` args, adds the bytes and the round
  /// to ExecStats and flushes the simulated network: DataLoss when it
  /// fenced a dead sender's stale transfer.
  [[nodiscard]] Status End();

 private:
  CommLayer* comm_;
  const char* name_;
  CommKind kind_;
  TraceSpan span_;
  double bytes_ = 0;
  int rounds_ = 1;
};

}  // namespace dmac
