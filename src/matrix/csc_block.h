// Compressed Sparse Column block (paper §5.3, Fig. 5).
//
// Three arrays: `values` (non-zero items), `row_idx` (row index per item),
// and `col_ptr` (start offset of each column). Memory = 4n + 8·m·n·s bytes,
// matching the paper's Eq. 2 (4-byte column pointers, 4-byte row indices and
// 4-byte float values, so 8 bytes per non-zero).
#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "matrix/shape.h"

namespace dmac {

/// A sparse block in CSC format. The pattern is immutable after
/// construction; build with CscBuilder or the static factories. Values may
/// be rewritten in place (mutable_values()), and an explicit zero written
/// there stays stored.
class CscBlock {
 public:
  CscBlock() = default;

  /// Creates an empty (all-zero) m×n sparse block.
  CscBlock(int64_t rows, int64_t cols);

  /// Takes ownership of pre-built CSC arrays. `col_ptr` must have
  /// `cols + 1` entries with col_ptr[0] == 0 and col_ptr[cols] == nnz; row
  /// indices must be strictly increasing within each column.
  CscBlock(int64_t rows, int64_t cols, std::vector<int32_t> col_ptr,
           std::vector<int32_t> row_idx, std::vector<Scalar> values);

  ~CscBlock();
  CscBlock(const CscBlock& other);
  CscBlock& operator=(const CscBlock& other);
  CscBlock(CscBlock&& other) noexcept;
  CscBlock& operator=(CscBlock&& other) noexcept;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  Shape shape() const { return {rows_, cols_}; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// Fraction of non-zero elements.
  double Sparsity() const {
    const int64_t total = rows_ * cols_;
    return total == 0 ? 0.0 : static_cast<double>(nnz()) / total;
  }

  /// Element lookup by binary search within the column. O(log nnz_col).
  Scalar At(int64_t r, int64_t c) const;

  /// [start, end) offsets of column `c` in row_idx()/values().
  int32_t ColStart(int64_t c) const { return col_ptr_[c]; }
  int32_t ColEnd(int64_t c) const { return col_ptr_[c + 1]; }

  const std::vector<int32_t>& col_ptr() const { return col_ptr_; }
  const std::vector<int32_t>& row_idx() const { return row_idx_; }
  const std::vector<Scalar>& values() const { return values_; }
  /// The nnz() values, writable: a map that keeps the pattern (scaling, a
  /// zero-preserving unary) rewrites them without rebuilding the block.
  Scalar* mutable_values() { return values_.data(); }

  /// Payload bytes: 4·(cols+1) + 8·nnz.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(sizeof(int32_t)) * (cols_ + 1) +
           static_cast<int64_t>(sizeof(int32_t) + sizeof(Scalar)) * nnz();
  }

  /// Structural transpose (CSC of the transposed block). O(nnz + m + n).
  CscBlock Transposed() const;

 private:
  void Track();
  void Untrack();
  void CheckInvariants() const;

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int32_t> col_ptr_;  // size cols_ + 1
  std::vector<int32_t> row_idx_;  // size nnz
  std::vector<Scalar> values_;    // size nnz
};

/// Accumulates (row, col, value) triplets, then emits a CscBlock.
/// Duplicate coordinates are summed. Not thread-safe.
class CscBuilder {
 public:
  CscBuilder(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {}

  /// Appends one entry. Zero values are kept out of the structure.
  void Add(int64_t row, int64_t col, Scalar value);

  void Reserve(size_t n) { entries_.reserve(n); }
  size_t size() const { return entries_.size(); }

  /// Sorts, deduplicates (summing), and builds the block. The builder is
  /// left empty and reusable.
  CscBlock Build();

 private:
  struct Entry {
    int32_t row;
    int32_t col;
    Scalar value;
  };
  int64_t rows_;
  int64_t cols_;
  std::vector<Entry> entries_;
};

}  // namespace dmac
