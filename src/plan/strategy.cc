#include "plan/strategy.h"

namespace dmac {

const char* MultAlgoName(MultAlgo a) {
  switch (a) {
    case MultAlgo::kNone:
      return "-";
    case MultAlgo::kRMM1:
      return "RMM1";
    case MultAlgo::kRMM2:
      return "RMM2";
    case MultAlgo::kCPMM:
      return "CPMM";
  }
  return "?";
}

std::string Strategy::ToString() const {
  std::string s = "{";
  for (size_t i = 0; i < input_schemes.size(); ++i) {
    if (i > 0) s += ",";
    s += SchemeChar(input_schemes[i]);
  }
  s += "}->";
  s += SchemeSetToString(out_schemes);
  if (mult_algo != MultAlgo::kNone) {
    s += " (";
    s += MultAlgoName(mult_algo);
    s += ")";
  }
  return s;
}

std::vector<Strategy> CandidateStrategies(const Operator& op) {
  std::vector<Strategy> out;
  switch (op.kind) {
    case OpKind::kMultiply: {
      // RMM1: A broadcast, B column-partitioned → C column-partitioned.
      Strategy rmm1;
      rmm1.input_schemes = {Scheme::kBroadcast, Scheme::kCol};
      rmm1.out_schemes = SchemeBit(Scheme::kCol);
      rmm1.mult_algo = MultAlgo::kRMM1;
      out.push_back(rmm1);
      // RMM2: A row-partitioned, B broadcast → C row-partitioned.
      Strategy rmm2;
      rmm2.input_schemes = {Scheme::kRow, Scheme::kBroadcast};
      rmm2.out_schemes = SchemeBit(Scheme::kRow);
      rmm2.mult_algo = MultAlgo::kRMM2;
      out.push_back(rmm2);
      // CPMM: A column-partitioned, B row-partitioned → C row or column
      // partitioned (flexible; Heuristic 2 collapses it on demand).
      Strategy cpmm;
      cpmm.input_schemes = {Scheme::kCol, Scheme::kRow};
      cpmm.out_schemes = SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol);
      cpmm.mult_algo = MultAlgo::kCPMM;
      cpmm.output_comm = true;
      out.push_back(cpmm);
      break;
    }
    case OpKind::kCellwise: {
      // Every operand aligned; the output takes their scheme.
      for (Scheme s : {Scheme::kRow, Scheme::kCol, Scheme::kBroadcast}) {
        Strategy st;
        st.input_schemes.assign(op.cell.binary() ? 2 : 1, s);
        st.out_schemes = SchemeBit(s);
        out.push_back(st);
      }
      break;
    }
    case OpKind::kRowSums:
    case OpKind::kColSums: {
      // The aggregation axis decides communication: summing along the
      // partitioned axis is local; summing across it leaves every worker
      // with a partial result vector that must be combined (an aggregation
      // shuffle costing N·|out|, like CPMM's output).
      const bool rows = op.kind == OpKind::kRowSums;
      const Scheme aligned = rows ? Scheme::kRow : Scheme::kCol;
      const Scheme crossed = rows ? Scheme::kCol : Scheme::kRow;
      Strategy local;
      local.input_schemes = {aligned};
      local.out_schemes = SchemeBit(aligned);
      out.push_back(local);
      Strategy replicated;
      replicated.input_schemes = {Scheme::kBroadcast};
      replicated.out_schemes = SchemeBit(Scheme::kBroadcast);
      out.push_back(replicated);
      Strategy aggregate;
      aggregate.input_schemes = {crossed};
      aggregate.out_schemes =
          SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol);
      aggregate.output_comm = true;
      out.push_back(aggregate);
      break;
    }
    case OpKind::kReduce: {
      for (Scheme s : {Scheme::kRow, Scheme::kCol, Scheme::kBroadcast}) {
        Strategy st;
        st.input_schemes = {s};
        out.push_back(st);
      }
      break;
    }
    case OpKind::kLoad: {
      // Reading from storage communicates: |A| to establish a row/column
      // partition, N·|A| for a broadcast (the planner prices this).
      for (Scheme s : {Scheme::kRow, Scheme::kCol, Scheme::kBroadcast}) {
        Strategy st;
        st.out_schemes = SchemeBit(s);
        out.push_back(st);
      }
      break;
    }
    case OpKind::kRandom: {
      // Deterministically seeded, so every worker can generate its share —
      // or all of it — without any data movement.
      for (Scheme s : {Scheme::kRow, Scheme::kCol, Scheme::kBroadcast}) {
        Strategy st;
        st.out_schemes = SchemeBit(s);
        out.push_back(st);
      }
      break;
    }
    case OpKind::kScalarAssign:
      break;
  }
  return out;
}

}  // namespace dmac
