#include "matrix/local_matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"

namespace dmac {

LocalMatrix LocalMatrix::Zeros(Shape shape, int64_t block_size) {
  LocalMatrix m;
  m.grid_ = {shape, block_size};
  m.blocks_.reserve(static_cast<size_t>(m.grid_.num_blocks()));
  for (int64_t bi = 0; bi < m.grid_.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < m.grid_.block_cols(); ++bj) {
      const Shape s = m.grid_.BlockShape(bi, bj);
      m.blocks_.emplace_back(DenseBlock(s.rows, s.cols));
    }
  }
  return m;
}

LocalMatrix LocalMatrix::RandomDense(Shape shape, int64_t block_size,
                                     uint64_t seed) {
  LocalMatrix m;
  m.grid_ = {shape, block_size};
  m.blocks_.reserve(static_cast<size_t>(m.grid_.num_blocks()));
  uint64_t stream = seed;
  for (int64_t bi = 0; bi < m.grid_.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < m.grid_.block_cols(); ++bj) {
      const Shape s = m.grid_.BlockShape(bi, bj);
      m.blocks_.push_back(
          RandomDenseBlock(s.rows, s.cols, SplitMix64(stream)));
    }
  }
  return m;
}

LocalMatrix LocalMatrix::RandomSparse(Shape shape, int64_t block_size,
                                      double sparsity, uint64_t seed) {
  LocalMatrix m;
  m.grid_ = {shape, block_size};
  m.blocks_.reserve(static_cast<size_t>(m.grid_.num_blocks()));
  uint64_t stream = seed;
  for (int64_t bi = 0; bi < m.grid_.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < m.grid_.block_cols(); ++bj) {
      const Shape s = m.grid_.BlockShape(bi, bj);
      m.blocks_.push_back(
          RandomSparseBlock(s.rows, s.cols, sparsity, SplitMix64(stream)));
    }
  }
  return m;
}

LocalMatrix LocalMatrix::FromBlock(Block block) {
  LocalMatrix m;
  const Shape s = block.shape();
  m.grid_ = {s, std::max<int64_t>(std::max(s.rows, s.cols), 1)};
  m.blocks_.push_back(std::move(block));
  return m;
}

LocalMatrix LocalMatrix::FromBlocks(Shape shape, int64_t block_size,
                                    std::vector<Block> blocks) {
  LocalMatrix m;
  m.grid_ = {shape, block_size};
  DMAC_CHECK_EQ(static_cast<int64_t>(blocks.size()), m.grid_.num_blocks());
  m.blocks_ = std::move(blocks);
  return m;
}

const Block& LocalMatrix::BlockAt(int64_t bi, int64_t bj) const {
  DMAC_CHECK(bi >= 0 && bi < grid_.block_rows());
  DMAC_CHECK(bj >= 0 && bj < grid_.block_cols());
  return blocks_[static_cast<size_t>(bi * grid_.block_cols() + bj)];
}

Block& LocalMatrix::BlockAt(int64_t bi, int64_t bj) {
  return const_cast<Block&>(
      static_cast<const LocalMatrix*>(this)->BlockAt(bi, bj));
}

Scalar LocalMatrix::At(int64_t r, int64_t c) const {
  const int64_t bs = grid_.block_size;
  return BlockAt(r / bs, c / bs).At(r % bs, c % bs);
}

int64_t LocalMatrix::Nnz() const {
  int64_t total = 0;
  for (const Block& b : blocks_) total += b.nnz();
  return total;
}

int64_t LocalMatrix::MemoryBytes() const {
  int64_t total = 0;
  for (const Block& b : blocks_) total += b.MemoryBytes();
  return total;
}

Result<LocalMatrix> LocalMatrix::Multiply(const LocalMatrix& other) const {
  if (cols() != other.rows()) {
    return Status::DimensionMismatch("multiply " + shape().ToString() +
                                     " by " + other.shape().ToString());
  }
  if (block_size() != other.block_size()) {
    return Status::Invalid("multiply requires equal block sizes: " +
                           std::to_string(block_size()) + " vs " +
                           std::to_string(other.block_size()));
  }
  LocalMatrix out = Zeros({rows(), other.cols()}, block_size());
  for (int64_t bi = 0; bi < grid_.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < other.grid_.block_cols(); ++bj) {
      DenseBlock& acc = out.BlockAt(bi, bj).dense();
      for (int64_t bk = 0; bk < grid_.block_cols(); ++bk) {
        DMAC_RETURN_NOT_OK(
            MultiplyAccumulate(BlockAt(bi, bk), other.BlockAt(bk, bj), &acc));
      }
    }
  }
  return out;
}

Result<LocalMatrix> LocalMatrix::Cellwise(const CellOp& op,
                                          const LocalMatrix* other) const {
  if (other != nullptr && (shape() != other->shape() ||
                           block_size() != other->block_size())) {
    return Status::DimensionMismatch(std::string(op.name()) + " " +
                                     shape().ToString() + " with " +
                                     other->shape().ToString());
  }
  std::vector<Block> out_blocks;
  out_blocks.reserve(blocks_.size());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    DMAC_ASSIGN_OR_RETURN(
        Block b, dmac::Cellwise(op, blocks_[i],
                                other != nullptr ? &other->blocks_[i]
                                                 : nullptr));
    out_blocks.push_back(std::move(b));
  }
  return FromBlocks(shape(), block_size(), std::move(out_blocks));
}

LocalMatrix LocalMatrix::Transposed() const {
  LocalMatrix out;
  out.grid_ = {shape().Transposed(), block_size()};
  out.blocks_.resize(blocks_.size());
  for (int64_t bi = 0; bi < grid_.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < grid_.block_cols(); ++bj) {
      out.blocks_[static_cast<size_t>(bj * out.grid_.block_cols() + bi)] =
          BlockAt(bi, bj).Transposed();
    }
  }
  return out;
}

LocalMatrix LocalMatrix::RowSums() const {
  LocalMatrix out = Zeros({rows(), 1}, block_size());
  for (int64_t bi = 0; bi < grid_.block_rows(); ++bi) {
    DenseBlock& acc = out.BlockAt(bi, 0).dense();
    for (int64_t bj = 0; bj < grid_.block_cols(); ++bj) {
      const DenseBlock partial = dmac::RowSums(BlockAt(bi, bj));
      for (int64_t r = 0; r < partial.rows(); ++r) {
        acc.Accumulate(r, 0, partial.At(r, 0));
      }
    }
  }
  return out;
}

LocalMatrix LocalMatrix::ColSums() const {
  LocalMatrix out = Zeros({1, cols()}, block_size());
  for (int64_t bj = 0; bj < grid_.block_cols(); ++bj) {
    DenseBlock& acc = out.BlockAt(0, bj).dense();
    for (int64_t bi = 0; bi < grid_.block_rows(); ++bi) {
      const DenseBlock partial = dmac::ColSums(BlockAt(bi, bj));
      for (int64_t c = 0; c < partial.cols(); ++c) {
        acc.Accumulate(0, c, partial.At(0, c));
      }
    }
  }
  return out;
}

double LocalMatrix::Sum() const {
  double total = 0;
  for (const Block& b : blocks_) total += dmac::Sum(b);
  return total;
}

double LocalMatrix::SumSquares() const {
  double total = 0;
  for (const Block& b : blocks_) total += dmac::SumSquares(b);
  return total;
}

LocalMatrix LocalMatrix::Compacted(double density_threshold) const {
  std::vector<Block> out_blocks;
  out_blocks.reserve(blocks_.size());
  for (const Block& b : blocks_) {
    out_blocks.push_back(b.Compacted(density_threshold));
  }
  return FromBlocks(shape(), block_size(), std::move(out_blocks));
}

bool LocalMatrix::ApproxEqual(const LocalMatrix& other, double tol) const {
  if (shape() != other.shape()) return false;
  for (int64_t c = 0; c < cols(); ++c) {
    for (int64_t r = 0; r < rows(); ++r) {
      if (std::abs(static_cast<double>(At(r, c)) - other.At(r, c)) > tol) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace dmac
