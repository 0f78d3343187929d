// Shared fixtures for the fault suite: small paper workloads and the
// bit-identity oracle that recovered runs are checked against.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/gnmf.h"
#include "apps/pagerank.h"
#include "apps/runner.h"
#include "data/graph_gen.h"
#include "data/synthetic.h"
#include "fault/checksum.h"
#include "lang/parser.h"

namespace dmac {

constexpr int64_t kFaultBs = 16;

/// A workload with owned input data, small enough that a whole seed×mode
/// identity sweep stays cheap.
struct FaultAppCase {
  std::string name;
  Program program;
  std::vector<std::pair<std::string, LocalMatrix>> inputs;

  Bindings MakeBindings() const {
    Bindings b;
    for (const auto& [name_, m] : inputs) b.emplace(name_, &m);
    return b;
  }
};

inline FaultAppCase MakeSmallGnmf() {
  GnmfConfig config{48, 32, 0.25, 4, 3};
  FaultAppCase c{"gnmf", BuildGnmfProgram(config), {}};
  c.inputs.emplace_back("V", SyntheticSparse(48, 32, 0.25, kFaultBs, 31));
  return c;
}

inline FaultAppCase MakeSmallPageRank() {
  const GraphSpec spec = SocPokec().Scaled(30000);
  PageRankConfig config{spec.nodes, 0.02, 3, 0.85};
  FaultAppCase c{"pagerank", BuildPageRankProgram(config), {}};
  c.inputs.emplace_back("link", RowNormalizedLink(spec, kFaultBs, 3));
  c.inputs.emplace_back(
      "D", ConstantMatrix({1, spec.nodes}, kFaultBs,
                          1.0f / static_cast<Scalar>(spec.nodes)));
  return c;
}

/// colSums of a row-partitioned product, three iterations: the crossed
/// aggregate, whose per-worker partial vectors go through shuffle-and-sum.
inline FaultAppCase MakeSmallColSums() {
  auto program = ParseProgram(
      "A = load(\"A\", 96, 64, 0.3)\n"
      "H = random(64, 40)\n"
      "for i in 0:3 {\n"
      "  W = A %*% H\n"
      "  c = colsums(W)\n"
      "  total = value(rowsums(c))\n"
      "  H = H / total\n"
      "}\n"
      "output(W)\n"
      "output(c)\n");
  EXPECT_TRUE(program.ok()) << program.status();
  FaultAppCase c{"colsums", *program, {}};
  c.inputs.emplace_back("A", SyntheticSparse(96, 64, 0.3, kFaultBs, 17));
  return c;
}

/// Recovery correctness is *bit* identity, not approximate equality: every
/// output block must hash to the fault-free run's checksum and every scalar
/// must compare exactly equal.
inline void ExpectBitIdentical(const ExecutionResult& expected,
                               const ExecutionResult& actual,
                               const std::string& context) {
  ASSERT_EQ(expected.matrices.size(), actual.matrices.size()) << context;
  for (const auto& [name, want] : expected.matrices) {
    ASSERT_TRUE(actual.matrices.count(name)) << context << " " << name;
    const LocalMatrix& got = actual.matrices.at(name);
    ASSERT_EQ(want.rows(), got.rows()) << context << " " << name;
    ASSERT_EQ(want.cols(), got.cols()) << context << " " << name;
    ASSERT_EQ(want.block_size(), got.block_size()) << context << " " << name;
    for (int64_t bi = 0; bi < want.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < want.grid().block_cols(); ++bj) {
        EXPECT_EQ(BlockChecksum(want.BlockAt(bi, bj)),
                  BlockChecksum(got.BlockAt(bi, bj)))
            << context << " " << name << " block (" << bi << "," << bj
            << ") diverged";
      }
    }
  }
  ASSERT_EQ(expected.scalars.size(), actual.scalars.size()) << context;
  for (const auto& [name, want] : expected.scalars) {
    ASSERT_TRUE(actual.scalars.count(name)) << context << " " << name;
    EXPECT_EQ(want, actual.scalars.at(name)) << context << " " << name;
  }
}

}  // namespace dmac
