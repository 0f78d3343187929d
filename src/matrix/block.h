// Block: the unit of computation and distribution in DMac (paper §5.3).
// A block is either dense (column-major array) or sparse (CSC).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/logging.h"
#include "matrix/csc_block.h"
#include "matrix/dense_block.h"
#include "matrix/shape.h"

namespace dmac {

/// Storage format of a block.
enum class BlockKind { kDense, kSparse };

/// Density at or above which a block is stored dense, below which CSC: the
/// one representation switch shared by the engine, the executor, and the
/// cost model.
inline constexpr double kDensityThreshold = 0.5;

/// Tagged union of DenseBlock and CscBlock with format-generic accessors.
class Block {
 public:
  /// An empty 0x0 dense block.
  Block() : storage_(DenseBlock()) {}
  Block(DenseBlock dense) : storage_(std::move(dense)) {}  // NOLINT
  Block(CscBlock sparse) : storage_(std::move(sparse)) {}  // NOLINT

  BlockKind kind() const {
    return std::holds_alternative<DenseBlock>(storage_) ? BlockKind::kDense
                                                        : BlockKind::kSparse;
  }
  bool IsDense() const { return kind() == BlockKind::kDense; }
  bool IsSparse() const { return kind() == BlockKind::kSparse; }

  const DenseBlock& dense() const {
    DMAC_CHECK(IsDense());
    return std::get<DenseBlock>(storage_);
  }
  DenseBlock& dense() {
    DMAC_CHECK(IsDense());
    return std::get<DenseBlock>(storage_);
  }
  const CscBlock& sparse() const {
    DMAC_CHECK(IsSparse());
    return std::get<CscBlock>(storage_);
  }
  CscBlock& sparse() {
    DMAC_CHECK(IsSparse());
    return std::get<CscBlock>(storage_);
  }

  int64_t rows() const {
    return IsDense() ? dense().rows() : sparse().rows();
  }
  int64_t cols() const {
    return IsDense() ? dense().cols() : sparse().cols();
  }
  Shape shape() const { return {rows(), cols()}; }

  Scalar At(int64_t r, int64_t c) const {
    return IsDense() ? dense().At(r, c) : sparse().At(r, c);
  }

  int64_t nnz() const {
    return IsDense() ? dense().CountNonZeros() : sparse().nnz();
  }

  /// Payload bytes in the current representation.
  int64_t MemoryBytes() const {
    return IsDense() ? dense().MemoryBytes() : sparse().MemoryBytes();
  }

  /// Converts to a dense copy (identity if already dense).
  DenseBlock ToDense() const;

  /// Converts to a CSC copy (identity if already sparse).
  CscBlock ToSparse() const;

  /// Transposed copy in the same representation.
  Block Transposed() const;

  /// Re-encodes in the cheaper representation: sparse when the density is
  /// below `density_threshold`, dense otherwise.
  Block Compacted(double density_threshold = kDensityThreshold) const;

 private:
  std::variant<DenseBlock, CscBlock> storage_;
};

/// Generates a dense block with i.i.d. uniform values in [0, 1).
Block RandomDenseBlock(int64_t rows, int64_t cols, uint64_t seed);

/// Generates a CSC block with ~`sparsity`·rows·cols uniform non-zeros.
Block RandomSparseBlock(int64_t rows, int64_t cols, double sparsity,
                        uint64_t seed);

/// Deterministic per-block seed for a named random matrix: identical on
/// every worker (and in the single-machine interpreter), which is what lets
/// a Broadcast-scheme random matrix cost zero communication.
uint64_t RandomBlockSeed(uint64_t base_seed, const std::string& name,
                         int64_t bi, int64_t bj);

}  // namespace dmac
