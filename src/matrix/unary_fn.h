// Element-wise unary functions applied to every matrix entry.
#pragma once


#include "matrix/shape.h"

namespace dmac {

/// The supported element-wise unary functions.
enum class UnaryFnKind {
  kExp,      // e^x            (densifies: e^0 = 1)
  kLog,      // ln(x)          (densifies: ln(0) = -inf)
  kAbs,      // |x|            (zero-preserving)
  kSigmoid,  // 1/(1+e^-x)     (densifies: σ(0) = 0.5)
  kSquare,   // x²             (zero-preserving)
};

const char* UnaryFnName(UnaryFnKind f);

/// True when f(0) == 0, so a sparse operand stays sparse.
inline bool UnaryFnPreservesZero(UnaryFnKind f) {
  return f == UnaryFnKind::kAbs || f == UnaryFnKind::kSquare;
}

}  // namespace dmac
