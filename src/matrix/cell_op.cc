#include "matrix/cell_op.h"

namespace dmac {

const char* CellOp::name() const {
  switch (kind) {
    case kAdd:
      return "add";
    case kSubtract:
      return "subtract";
    case kMultiply:
      return "cell-multiply";
    case kDivide:
      return "cell-divide";
    case kScale:
      return "scalar-multiply";
    case kShift:
      return "scalar-add";
    case kUnary:
      return "cell-unary";
  }
  return "?";
}

const char* UnaryFnName(UnaryFnKind f) {
  switch (f) {
    case UnaryFnKind::kExp:
      return "exp";
    case UnaryFnKind::kLog:
      return "log";
    case UnaryFnKind::kAbs:
      return "abs";
    case UnaryFnKind::kSigmoid:
      return "sigmoid";
    case UnaryFnKind::kSquare:
      return "square";
  }
  return "?";
}

}  // namespace dmac
