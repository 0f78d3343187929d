#include "matrix/block.h"

#include <utility>

#include "common/rng.h"

namespace dmac {

DenseBlock Block::ToDense() const {
  if (IsDense()) return dense();
  const CscBlock& s = sparse();
  DenseBlock d(s.rows(), s.cols());
  for (int64_t c = 0; c < s.cols(); ++c) {
    for (int32_t k = s.ColStart(c); k < s.ColEnd(c); ++k) {
      d.Set(s.row_idx()[k], c, s.values()[k]);
    }
  }
  return d;
}

CscBlock Block::ToSparse() const {
  if (IsSparse()) return sparse();
  const DenseBlock& d = dense();
  CscBuilder builder(d.rows(), d.cols());
  for (int64_t c = 0; c < d.cols(); ++c) {
    const Scalar* col = d.col(c);
    for (int64_t r = 0; r < d.rows(); ++r) {
      if (col[r] != Scalar{0}) builder.Add(r, c, col[r]);
    }
  }
  return builder.Build();
}

Block Block::Transposed() const {
  if (IsSparse()) return Block(sparse().Transposed());
  const DenseBlock& d = dense();
  DenseBlock t(d.cols(), d.rows());
  for (int64_t c = 0; c < d.cols(); ++c) {
    const Scalar* col = d.col(c);
    for (int64_t r = 0; r < d.rows(); ++r) t.Set(c, r, col[r]);
  }
  return Block(std::move(t));
}

namespace {

/// True when `b` keeps its representation under Compacted(threshold).
bool KeepsRepresentation(const Block& b, double density_threshold) {
  const int64_t total = b.rows() * b.cols();
  if (total == 0) return true;
  const double density = static_cast<double>(b.nnz()) / total;
  return (density < density_threshold) == b.IsSparse();
}

}  // namespace

Block Block::Compacted(double density_threshold) const& {
  if (KeepsRepresentation(*this, density_threshold)) return *this;
  return IsSparse() ? Block(ToDense()) : Block(ToSparse());
}

Block Block::Compacted(double density_threshold) && {
  if (KeepsRepresentation(*this, density_threshold)) return std::move(*this);
  return IsSparse() ? Block(ToDense()) : Block(ToSparse());
}

Block RandomDenseBlock(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseBlock d(rows, cols);
  Scalar* data = d.data();
  const int64_t n = rows * cols;
  for (int64_t i = 0; i < n; ++i) {
    data[i] = static_cast<Scalar>(rng.NextDouble());
  }
  return Block(std::move(d));
}

uint64_t RandomBlockSeed(uint64_t base_seed, const std::string& name,
                         int64_t bi, int64_t bj) {
  uint64_t seed = base_seed;
  for (char c : name) seed = seed * 131 + static_cast<unsigned char>(c);
  seed = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(bi);
  seed = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(bj);
  return seed;
}

Block RandomSparseBlock(int64_t rows, int64_t cols, double sparsity,
                        uint64_t seed) {
  Rng rng(seed);
  CscBuilder builder(rows, cols);
  const int64_t target =
      static_cast<int64_t>(sparsity * static_cast<double>(rows) *
                           static_cast<double>(cols));
  builder.Reserve(static_cast<size_t>(target));
  for (int64_t i = 0; i < target; ++i) {
    const int64_t r = static_cast<int64_t>(rng.NextBounded(rows));
    const int64_t c = static_cast<int64_t>(rng.NextBounded(cols));
    builder.Add(r, c, static_cast<Scalar>(rng.NextDouble() + 0.01));
  }
  return Block(builder.Build());
}

}  // namespace dmac
