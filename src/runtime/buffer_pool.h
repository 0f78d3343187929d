// Result buffer pool (paper §5.3, Fig. 4).
//
// Worker threads acquire a clean dense block at the start of each task and
// accumulate the task's result into it in place. A result dense enough to
// stay dense keeps its accumulator as its storage (no copy), so that block
// leaves the pool for good (Disown); the accumulator of a result emitted
// sparse, and the GEMM kernels' packing and staging scratch, come back
// (Release). The pool keeps a bounded number of idle blocks per shape so
// that memory is reused instead of reallocated. A recycled block is zeroed
// outside the pool's lock.
//
// The pool's blocks are bounded kernel scratch and are not charged to a
// query's memory budget (docs/governance.md): the governor layer charges
// the partition stores at step boundaries, so the account does not depend
// on how the engine's threads interleave.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "matrix/dense_block.h"

namespace dmac {

/// Thread-safe pool of reusable dense result blocks.
class BufferPool {
 public:
  /// `max_per_shape` bounds how many idle blocks of one shape are retained.
  explicit BufferPool(size_t max_per_shape = 8)
      : max_per_shape_(max_per_shape) {}
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a zeroed block of the given shape (recycled when available).
  DenseBlock Acquire(int64_t rows, int64_t cols) DMAC_EXCLUDES(mu_);

  /// Returns a block to the pool; dropped if the shape's slot is full.
  /// Only pass blocks obtained from this pool's Acquire.
  void Release(DenseBlock block) DMAC_EXCLUDES(mu_);

  /// Takes a block obtained from this pool's Acquire off the pool's books
  /// without returning it: the caller keeps the storage (a dense multiply
  /// result is its accumulator). `block` is the acquired block or the block
  /// its storage was moved into.
  void Disown(const DenseBlock& block);

  /// Number of idle blocks currently held.
  size_t IdleBlocks() const DMAC_EXCLUDES(mu_);

  /// Process-wide count of acquired-but-not-released blocks across all
  /// pools. Zero when no kernel is mid-flight; the soak harness asserts
  /// this to catch leaked accumulators.
  static int64_t GlobalOutstandingBlocks();

 private:
  mutable Mutex mu_;
  const size_t max_per_shape_;
  std::map<std::pair<int64_t, int64_t>, std::vector<DenseBlock>> free_
      DMAC_GUARDED_BY(mu_);
};

}  // namespace dmac
