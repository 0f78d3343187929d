#include "matrix/dense_block.h"

#include <algorithm>

#include "matrix/mem_tracker.h"

namespace dmac {

DenseBlock::DenseBlock(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), 0) {
  DMAC_CHECK(rows >= 0 && cols >= 0);
  Track();
}

DenseBlock::~DenseBlock() { Untrack(); }

DenseBlock::DenseBlock(const DenseBlock& other)
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
  Track();
}

DenseBlock& DenseBlock::operator=(const DenseBlock& other) {
  if (this == &other) return *this;
  Untrack();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = other.data_;
  Track();
  return *this;
}

DenseBlock::DenseBlock(DenseBlock&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
}

DenseBlock& DenseBlock::operator=(DenseBlock&& other) noexcept {
  if (this == &other) return *this;
  Untrack();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
  return *this;
}

int64_t DenseBlock::CountNonZeros() const {
  int64_t nnz = 0;
  for (Scalar v : data_) nnz += (v != Scalar{0});
  return nnz;
}

void DenseBlock::Track() {
  if (!data_.empty()) MemTracker::Global().Allocate(MemoryBytes());
}

void DenseBlock::Untrack() {
  if (!data_.empty()) MemTracker::Global().Release(MemoryBytes());
}

bool AnyNonZero(const Scalar* p, int64_t n) {
  // Branch-free within a chunk so the test vectorizes; one branch per
  // chunk ends the scan early.
  constexpr int64_t kChunk = 256;
  for (int64_t begin = 0; begin < n; begin += kChunk) {
    const int64_t end = std::min(n, begin + kChunk);
    int hit = 0;
    for (int64_t i = begin; i < end; ++i) hit |= p[i] != Scalar{0};
    if (hit != 0) return true;
  }
  return false;
}

}  // namespace dmac
