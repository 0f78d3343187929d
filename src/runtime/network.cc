#include "runtime/network.h"

#include <algorithm>
#include <utility>

namespace dmac {

void SimNetwork::Send(int from, int to, double bytes,
                      std::function<void()> commit) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.seq = next_seq_[{from, to}]++;
  msg.epoch = membership_ != nullptr ? membership_->epoch() : 1;
  msg.commit = std::move(commit);
  ++stats_.messages;

  if (injector_ != nullptr) {
    // Partition activation: drawn only while no partition is open, so an
    // open partition never consumes activation draws (schedule stability).
    if (partition_budget_ <= 0 && injector_->DrawNetPartition()) {
      partition_victim_ = from;
      partition_budget_ = injector_->spec().net.partition_drops;
      ++stats_.partitions;
    }
    bool forced_drop = false;
    if (partition_budget_ > 0 &&
        (from == partition_victim_ || to == partition_victim_)) {
      forced_drop = true;  // bidirectional: either endpoint loses the send
      if (--partition_budget_ == 0) partition_victim_ = -1;  // healed
    }
    // Drop → retransmit under the retry policy. The loop is bounded by the
    // retry budget; the attempt after the last injected drop goes through,
    // so delivery is guaranteed (simulated ack + timeout).
    int attempt = 0;
    while (attempt < policy_.max_retries &&
           (forced_drop || injector_->DrawNetDrop())) {
      forced_drop = false;  // only the first send is partition-forced
      ++stats_.retransmits;
      stats_.retrans_bytes += bytes;
      stats_.delay_seconds += policy_.BackoffSeconds(attempt);
      ++attempt;
    }
    if (injector_->DrawNetDup()) {
      // A literal second delivery with the original's sequence number;
      // Flush's dedup must absorb it before the commit runs twice.
      Message dup = msg;
      dup.duplicate = true;
      dup.commit = msg.commit;
      ++stats_.duplicates;
      messages_.push_back(std::move(dup));
    }
    if (injector_->DrawNetReorder()) {
      // Arrival order is scrambled on the wire; sorted delivery re-imposes
      // (sender, sequence) order, so this is pure accounting.
      ++stats_.reordered;
    }
    if (injector_->DrawNetDelay()) {
      stats_.delay_seconds += injector_->spec().net.delay_seconds;
    }
  }
  messages_.push_back(std::move(msg));
}

Status SimNetwork::Flush(const char* what) {
  // Deliver in (from, to, seq) order — the direct path's sender-ascending
  // commit order, which pins the floating-point summation order and makes
  // reordering invisible. stable_sort keeps a duplicate adjacent to (after
  // or before) its original; adjacency is all dedup needs.
  std::stable_sort(messages_.begin(), messages_.end(),
                   [](const Message& a, const Message& b) {
                     if (a.from != b.from) return a.from < b.from;
                     if (a.to != b.to) return a.to < b.to;
                     return a.seq < b.seq;
                   });
  int64_t fenced = 0;
  for (size_t i = 0; i < messages_.size(); ++i) {
    const Message& msg = messages_[i];
    if (i > 0) {
      const Message& prev = messages_[i - 1];
      if (prev.from == msg.from && prev.to == msg.to && prev.seq == msg.seq) {
        continue;  // duplicate delivery: ack again, commit nothing
      }
    }
    if (membership_ != nullptr && membership_->IsDead(msg.from) &&
        msg.epoch < membership_->epoch()) {
      // The zombie write: sent before the sender's death was declared. A
      // dead `from` at the *current* epoch is not fenced — after
      // rebalancing the slot is virtual, hosted by a survivor, and its
      // sends are legitimate degraded-mode traffic.
      ++stats_.stale_fenced;
      ++fenced;
      continue;
    }
    // Independent re-check at the commit point: a stale-epoch write from
    // a dead sender reaching here means the fence above grew a hole.
    // Tests assert this audit counter never moves.
    if (membership_ != nullptr && msg.epoch < membership_->epoch() &&
        membership_->IsDead(msg.from)) {
      ++stats_.stale_applied;
    }
    if (msg.commit) msg.commit();
  }
  messages_.clear();
  if (fenced > 0) {
    return Status::DataLoss(std::string(what) + ": " +
                            std::to_string(fenced) +
                            " stale-epoch transfers fenced");
  }
  return Status::Ok();
}

}  // namespace dmac
