// DistMatrix: a matrix distributed across simulated worker stores.
//
// Two-level partitioning, exactly as in the paper (§5.3): the matrix is cut
// into square blocks (the compute/distribution unit), and the blocks are
// assigned to workers by the node's partition scheme — contiguous block-row
// ranges for Row, block-column ranges for Column, full replication for
// Broadcast. Blocks are shared immutably (shared_ptr), so local extended
// operators (reference/extract) copy pointers, not payloads — only the
// comm layer (comm.h) moves blocks across stores and counts bytes. The one
// exception: on a clean run, an element-wise step whose first input dies
// there takes that input's blocks out of their stores (TakeWorkerBlocks),
// and a block nothing else references moves into the step's output.
//
// Governance (docs/governance.md): each store records the bytes of the
// blocks it *owns* (input matrices are aliased, not owned, and count
// nothing); the governor layer (runtime/governor_layer.h) reads these at
// step boundaries to charge the query's budget. Cold entries can be spilled
// to a SpillStore — the entry keeps its key and checksum but drops its
// payload — and restored before the next step that reads them. Spilling and
// restoring happen only on the driver thread, between steps, so readers
// never race a payload swap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "fault/checksum.h"
#include "governor/spill_store.h"
#include "matrix/block.h"
#include "obs/trace.h"
#include "plan/scheme.h"
#include "runtime/owner.h"

namespace dmac {

/// Allocates a stored block. The Block is created non-const, so a holder of
/// the last reference may move it out (the executor's gather does).
inline std::shared_ptr<const Block> NewBlockPtr(Block block) {
  return std::shared_ptr<const Block>(
      std::make_shared<Block>(std::move(block)));
}

/// One matrix materialized on the cluster under a partition scheme.
class DistMatrix {
 public:
  using BlockPtr = std::shared_ptr<const Block>;

  DistMatrix(BlockGrid grid, Scheme scheme, int num_workers)
      : grid_(grid),
        scheme_(scheme),
        num_workers_(num_workers),
        stores_(static_cast<size_t>(num_workers)) {}

  ~DistMatrix() {
    for (auto& store : stores_) {
      for (auto& [key, entry] : store) ReleaseEntry(&entry);
    }
  }

  DistMatrix(const DistMatrix&) = delete;
  DistMatrix& operator=(const DistMatrix&) = delete;

  const BlockGrid& grid() const { return grid_; }
  Scheme scheme() const { return scheme_; }
  int num_workers() const { return num_workers_; }

  /// Owner of block (bi, bj) under this matrix's scheme. For Broadcast
  /// every worker holds the block; this returns the canonical copy (0).
  int OwnerOf(int64_t bi, int64_t bj) const {
    switch (scheme_) {
      case Scheme::kRow:
        return OwnerOfIndex(bi, grid_.block_rows(), num_workers_);
      case Scheme::kCol:
        return OwnerOfIndex(bj, grid_.block_cols(), num_workers_);
      case Scheme::kBroadcast:
        return 0;
    }
    return 0;
  }

  /// Places a block in `worker`'s store. The entry starts unverifiable
  /// (no checksum) — fault-tolerant runs stamp checksums in batch via
  /// SetChecksums() after the producing step, keeping the fault-free path
  /// free of hashing work.
  ///
  /// Owning blocks (use_count > 0) count toward OwnedBytes(); non-owning
  /// aliases of another matrix's payload do not — the owner already counts
  /// them (replicas of a Broadcast matrix each own their pointer, so
  /// cluster-wide replication is counted N times, matching
  /// TotalStoredBytes()).
  void Put(int worker, int64_t bi, int64_t bj, BlockPtr block) {
    DMAC_CHECK(worker >= 0 && worker < num_workers_);
    Entry entry;
    if (block != nullptr && block.use_count() > 0) {
      entry.owned_bytes = block->MemoryBytes();
    }
    entry.block = std::move(block);
    Entry& slot = stores_[static_cast<size_t>(worker)][Key(bi, bj)];
    ReleaseEntry(&slot);
    slot = std::move(entry);
  }

  /// Block (bi, bj) from `worker`'s store; null when absent there (or
  /// currently spilled — call EnsureResident() first on governed runs).
  BlockPtr Get(int worker, int64_t bi, int64_t bj) const {
    const auto& store = stores_[static_cast<size_t>(worker)];
    auto it = store.find(Key(bi, bj));
    return it == store.end() ? nullptr : it->second.block;
  }

  /// Block (bi, bj) from its owner's store (any replica for Broadcast).
  BlockPtr GetOwned(int64_t bi, int64_t bj) const {
    return Get(OwnerOf(bi, bj), bi, bj);
  }

  /// All blocks in `worker`'s store as (bi, bj, block) triples, in
  /// ascending key order. The store's own iteration order follows the
  /// order blocks were put, which the engine's threads decide; summing
  /// over blocks in a canonical order keeps aggregates and reductions
  /// bit-identical from run to run.
  std::vector<std::tuple<int64_t, int64_t, BlockPtr>> WorkerBlocks(
      int worker) const {
    std::vector<std::tuple<int64_t, int64_t, BlockPtr>> out;
    const auto& store = stores_[static_cast<size_t>(worker)];
    out.reserve(store.size());
    for (const auto& [key, entry] : store) {
      out.emplace_back(key / grid_.block_cols(), key % grid_.block_cols(),
                       entry.block);
    }
    std::sort(out.begin(), out.end());  // (bi, bj) pairs are unique
    return out;
  }

  /// WorkerBlocks(worker), leaving `worker`'s store empty: the returned
  /// pointers replace the store's references. Driver thread only.
  std::vector<std::tuple<int64_t, int64_t, BlockPtr>> TakeWorkerBlocks(
      int worker) {
    auto out = WorkerBlocks(worker);
    ClearWorker(worker);
    return out;
  }

  /// Keys of `worker`'s store in ascending order. Deterministic iteration
  /// order for fault injection and lineage capture; decompose a key with
  /// bi = key / grid().block_cols(), bj = key % grid().block_cols().
  std::vector<int64_t> SortedWorkerKeys(int worker) const {
    const auto& store = stores_[static_cast<size_t>(worker)];
    std::vector<int64_t> keys;
    keys.reserve(store.size());
    for (const auto& [key, entry] : store) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Total resident payload bytes across all stores (replicas counted;
  /// spilled entries excluded — they live on disk, not in memory).
  int64_t TotalStoredBytes() const {
    int64_t total = 0;
    for (const auto& store : stores_) {
      for (const auto& [key, entry] : store) {
        if (entry.block != nullptr) total += entry.block->MemoryBytes();
      }
    }
    return total;
  }

  /// Flat store key of block (bi, bj) — the identifier used in lineage
  /// records and checkpoints.
  int64_t Key(int64_t bi, int64_t bj) const {
    DMAC_CHECK(bi >= 0 && bi < grid_.block_rows());
    DMAC_CHECK(bj >= 0 && bj < grid_.block_cols());
    return bi * grid_.block_cols() + bj;
  }

  // --- Governance (docs/governance.md) -------------------------------------

  /// Bytes of the blocks this matrix owns, resident or spilled. This is a
  /// step's pinned working-set contribution: reading the matrix requires
  /// all of it resident at once.
  int64_t OwnedBytes() const {
    int64_t total = 0;
    for (const auto& store : stores_) {
      for (const auto& [key, entry] : store) total += entry.owned_bytes;
    }
    return total;
  }

  /// Number of entries currently spilled to disk.
  int64_t SpilledEntries() const { return spilled_entries_; }

  /// Owned bytes currently spilled to disk.
  int64_t SpilledBytes() const {
    if (spilled_entries_ == 0) return 0;
    int64_t total = 0;
    for (const auto& store : stores_) {
      for (const auto& [key, entry] : store) {
        if (entry.spill_handle != SpillStore::kNoHandle) {
          total += entry.owned_bytes;
        }
      }
    }
    return total;
  }

  /// Restores every spilled entry from the store it was spilled to.
  /// Driver thread only.
  Status EnsureResident() {
    for (auto& store : stores_) {
      for (auto& [key, entry] : store) {
        if (entry.spill_handle == SpillStore::kNoHandle) continue;
        DMAC_ASSIGN_OR_RETURN(Block block,
                              spill_->Restore(entry.spill_handle));
        entry.block = NewBlockPtr(std::move(block));
        entry.spill_handle = SpillStore::kNoHandle;
        --spilled_entries_;
      }
    }
    return Status::Ok();
  }

  /// Spills owned resident entries to `spill` — workers ascending, keys
  /// ascending, so the eviction order is deterministic — until at least
  /// `target_bytes` were freed or no candidate remains. Returns the bytes
  /// freed. The matrix keeps `spill`: dropping a spilled entry removes its
  /// file there. Driver thread only.
  Result<int64_t> SpillColdBlocks(std::shared_ptr<SpillStore> spill,
                                  int64_t target_bytes) {
    spill_ = std::move(spill);
    int64_t freed = 0;
    for (int w = 0; w < num_workers_ && freed < target_bytes; ++w) {
      auto& store = stores_[static_cast<size_t>(w)];
      for (int64_t key : SortedWorkerKeys(w)) {
        if (freed >= target_bytes) break;
        Entry& entry = store[key];
        if (entry.block == nullptr || entry.owned_bytes == 0) continue;
        DMAC_ASSIGN_OR_RETURN(int64_t handle, spill_->Spill(*entry.block));
        entry.spill_handle = handle;
        entry.block = nullptr;
        freed += entry.owned_bytes;
        ++spilled_entries_;
      }
    }
    return freed;
  }

  // --- Integrity (docs/fault_tolerance.md) ---------------------------------

  /// Stamps a checksum on every resident entry that lacks one. Shared
  /// payloads (Broadcast replicas, referenced blocks) are hashed once.
  void SetChecksums() {
    std::unordered_map<const Block*, uint64_t> cache;
    for (auto& store : stores_) {
      for (auto& [key, entry] : store) {
        if (entry.checksum != kNoChecksum || entry.block == nullptr) continue;
        auto [it, inserted] = cache.try_emplace(entry.block.get(), 0);
        if (inserted) it->second = BlockChecksum(*entry.block);
        entry.checksum = it->second;
      }
    }
  }

  /// Stored checksum of (bi, bj) at `worker`; kNoChecksum if absent or
  /// never stamped.
  uint64_t ChecksumAt(int worker, int64_t bi, int64_t bj) const {
    const auto& store = stores_[static_cast<size_t>(worker)];
    auto it = store.find(Key(bi, bj));
    return it == store.end() ? kNoChecksum : it->second.checksum;
  }

  /// Verifies (bi, bj) at `worker`: present, and — when a checksum was
  /// stamped — hashing to it. Missing or mismatching entries are DataLoss
  /// (retryable after lineage recovery); unstamped entries pass. Spilled
  /// entries pass here: the spill file carries its own checksum, verified
  /// on restore.
  Status VerifyAt(int worker, int64_t bi, int64_t bj) const {
    const auto& store = stores_[static_cast<size_t>(worker)];
    auto it = store.find(Key(bi, bj));
    if (it == store.end()) {
      return Status::DataLoss("block (" + std::to_string(bi) + ", " +
                              std::to_string(bj) + ") missing on worker " +
                              std::to_string(worker));
    }
    const Entry& entry = it->second;
    if (entry.block == nullptr) return Status::Ok();  // spilled
    if (entry.checksum != kNoChecksum &&
        BlockChecksum(*entry.block) != entry.checksum) {
      return Status::DataLoss("block (" + std::to_string(bi) + ", " +
                              std::to_string(bj) + ") corrupt on worker " +
                              std::to_string(worker));
    }
    return Status::Ok();
  }

  // --- Injector mutation hooks (fault framework only) ----------------------

  /// Drops entry (bi, bj) from `worker`'s store. True if it was present.
  bool Drop(int worker, int64_t bi, int64_t bj) {
    auto& store = stores_[static_cast<size_t>(worker)];
    auto it = store.find(Key(bi, bj));
    if (it == store.end()) return false;
    ReleaseEntry(&it->second);
    store.erase(it);
    return true;
  }

  /// Empties `worker`'s store (simulated crash). Returns entries lost.
  int64_t ClearWorker(int worker) {
    auto& store = stores_[static_cast<size_t>(worker)];
    const int64_t lost = static_cast<int64_t>(store.size());
    for (auto& [key, entry] : store) ReleaseEntry(&entry);
    store.clear();
    return lost;
  }

  /// Swaps the payload of (bi, bj) at `worker` *keeping the old checksum* —
  /// silent corruption, detectable only by VerifyAt. True if present and
  /// resident (a spilled entry has no payload to corrupt).
  bool ReplacePayload(int worker, int64_t bi, int64_t bj, BlockPtr block) {
    auto& store = stores_[static_cast<size_t>(worker)];
    auto it = store.find(Key(bi, bj));
    if (it == store.end() || it->second.block == nullptr) return false;
    it->second.block = std::move(block);
    return true;
  }

 private:
  struct Entry {
    BlockPtr block;
    uint64_t checksum = kNoChecksum;
    /// Spill file handle, or SpillStore::kNoHandle when resident.
    int64_t spill_handle = SpillStore::kNoHandle;
    /// Payload bytes owned (0 for non-owning aliases).
    int64_t owned_bytes = 0;
  };

  /// Removes an entry's spill file, if any, and leaves the entry empty.
  void ReleaseEntry(Entry* entry) {
    if (entry->spill_handle != SpillStore::kNoHandle) {
      spill_->Remove(entry->spill_handle);
      entry->spill_handle = SpillStore::kNoHandle;
      --spilled_entries_;
    }
    entry->block = nullptr;
    entry->owned_bytes = 0;
  }

  BlockGrid grid_;
  Scheme scheme_;
  int num_workers_;
  std::vector<std::unordered_map<int64_t, Entry>> stores_;
  std::shared_ptr<SpillStore> spill_;  // where spilled entries live
  int64_t spilled_entries_ = 0;
};

/// A run's node data by plan node id (null = not materialized).
using NodeTable = std::vector<std::shared_ptr<DistMatrix>>;

/// Restores every spilled block of plan node `node_id`'s matrix `dm` (null
/// or unspilled: no-op) under one `restore node` spill span.
inline Status RestoreSpilled(int node_id, DistMatrix* dm) {
  if (dm == nullptr || dm->SpilledEntries() == 0) return Status::Ok();
  TraceSpan span(kTraceSpill, "restore node " + std::to_string(node_id), -1,
                 TraceArg("node", int64_t{node_id}));
  return dm->EnsureResident();
}

}  // namespace dmac
