// Dense matrix block: column-major one-dimensional array (paper §5.3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "matrix/shape.h"

namespace dmac {

/// A dense block stored column-major. Memory = 4·m·n bytes (Eq. 2).
class DenseBlock {
 public:
  DenseBlock() = default;

  /// Creates an m×n block initialized to zero.
  DenseBlock(int64_t rows, int64_t cols);
  ~DenseBlock();

  DenseBlock(const DenseBlock& other);
  DenseBlock& operator=(const DenseBlock& other);
  DenseBlock(DenseBlock&& other) noexcept;
  DenseBlock& operator=(DenseBlock&& other) noexcept;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  Shape shape() const { return {rows_, cols_}; }

  Scalar At(int64_t r, int64_t c) const {
    DMAC_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[c * rows_ + r];
  }
  void Set(int64_t r, int64_t c, Scalar v) {
    DMAC_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    data_[c * rows_ + r] = v;
  }
  void Accumulate(int64_t r, int64_t c, Scalar v) {
    data_[c * rows_ + r] += v;
  }

  /// Raw column-major payload.
  const Scalar* data() const { return data_.data(); }
  Scalar* data() { return data_.data(); }
  /// Pointer to the first element of column `c`.
  const Scalar* col(int64_t c) const { return data_.data() + c * rows_; }
  Scalar* col(int64_t c) { return data_.data() + c * rows_; }

  /// Number of non-zero elements (exact scan). -0.0 counts as zero, NaN
  /// as non-zero.
  int64_t CountNonZeros() const;

  /// Payload bytes (4·m·n).
  int64_t MemoryBytes() const { return MemoryBytesFor(rows_, cols_); }

  /// Payload bytes a block of the given shape would occupy.
  static int64_t MemoryBytesFor(int64_t rows, int64_t cols) {
    return static_cast<int64_t>(sizeof(Scalar)) * rows * cols;
  }

 private:
  void Track();
  void Untrack();

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<Scalar> data_;
};

/// True when some p[i], i < n, is non-zero: -0.0 counts as zero and NaN as
/// non-zero, as in CountNonZeros(). Stops at the first chunk holding one.
bool AnyNonZero(const Scalar* p, int64_t n);

}  // namespace dmac
