// LocalMatrix: a single-node blocked matrix.
//
// Serves two roles in the reproduction:
//  * the "R" baseline of Fig. 6 (an efficient in-memory single-machine
//    matrix engine), and
//  * the correctness oracle that distributed results are checked against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "matrix/block.h"
#include "matrix/block_ops.h"

namespace dmac {

/// A matrix held entirely in local memory as a grid of blocks.
class LocalMatrix {
 public:
  LocalMatrix() = default;

  /// All-zero dense matrix.
  static LocalMatrix Zeros(Shape shape, int64_t block_size);

  /// Uniform [0,1) dense matrix, deterministic per seed.
  static LocalMatrix RandomDense(Shape shape, int64_t block_size,
                                 uint64_t seed);

  /// Random sparse matrix with the given expected sparsity.
  static LocalMatrix RandomSparse(Shape shape, int64_t block_size,
                                  double sparsity, uint64_t seed);

  /// Wraps a single block as a 1×1-grid matrix.
  static LocalMatrix FromBlock(Block block);

  /// Builds a matrix from explicit blocks laid out row-major on the grid.
  static LocalMatrix FromBlocks(Shape shape, int64_t block_size,
                                std::vector<Block> blocks);

  Shape shape() const { return grid_.matrix; }
  int64_t rows() const { return grid_.matrix.rows; }
  int64_t cols() const { return grid_.matrix.cols; }
  int64_t block_size() const { return grid_.block_size; }
  const BlockGrid& grid() const { return grid_; }

  const Block& BlockAt(int64_t bi, int64_t bj) const;
  Block& BlockAt(int64_t bi, int64_t bj);

  /// Element access (routes into the owning block).
  Scalar At(int64_t r, int64_t c) const;

  /// Total number of non-zero elements.
  int64_t Nnz() const;

  /// Total payload bytes over all blocks.
  int64_t MemoryBytes() const;

  /// Matrix product; block sizes must match.
  Result<LocalMatrix> Multiply(const LocalMatrix& other) const;

  Result<LocalMatrix> Add(const LocalMatrix& other) const;
  Result<LocalMatrix> Subtract(const LocalMatrix& other) const;
  Result<LocalMatrix> CellMultiply(const LocalMatrix& other) const;
  Result<LocalMatrix> CellDivide(const LocalMatrix& other) const;

  LocalMatrix Transposed() const;
  LocalMatrix ScalarMultiply(Scalar scalar) const;
  LocalMatrix ScalarAdd(Scalar scalar) const;

  /// Column vector (m×1) of row sums.
  LocalMatrix RowSums() const;
  /// Row vector (1×n) of column sums.
  LocalMatrix ColSums() const;

  /// Sum of all elements.
  double Sum() const;
  /// Sum of squares of all elements.
  double SumSquares() const;

  /// Re-encodes every block in its cheaper representation.
  LocalMatrix Compacted(double density_threshold = kDensityThreshold) const;

  /// True when all elements differ by at most `tol`.
  bool ApproxEqual(const LocalMatrix& other, double tol = 1e-3) const;

 private:
  template <typename Fn>
  Result<LocalMatrix> ZipBlocks(const LocalMatrix& other, const char* op,
                                Fn fn) const;

  BlockGrid grid_;
  std::vector<Block> blocks_;  // row-major: [bi * block_cols + bj]
};

}  // namespace dmac
