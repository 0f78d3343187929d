// ScaLAPACK-style distributed matrix multiplication (paper §6.6, Table 4).
//
// Models the two properties the paper measures ScaLAPACK by:
//  * two-dimensional block-cyclic distribution with a SUMMA multiplication
//    (broadcast of A panels along process rows and B panels along process
//    columns each round), and
//  * dense-only arithmetic — sparse inputs are handled "the way on dense
//    one" (densified), so MM-Sparse and MM-Dense cost the same.
//
// Processes are simulated: each process's compute is run (and timed)
// sequentially with real dense kernels; message traffic is counted
// per-panel, MPI-style (many small messages instead of bulk shuffles).
#pragma once

#include <vector>

#include "common/result.h"
#include "matrix/local_matrix.h"
#include "obs/exec_stats.h"

namespace dmac {

/// A pr × pc process grid.
struct ProcessGrid {
  int rows = 2;
  int cols = 2;
  int size() const { return rows * cols; }
};

/// Outcome of a simulated distributed multiplication.
struct MmSimResult {
  LocalMatrix c;
  double comm_bytes = 0;
  int64_t comm_messages = 0;
  std::vector<double> proc_seconds;  // measured compute per process
  /// Extra fixed overhead (SciDB chunk management); zero for ScaLAPACK.
  double overhead_seconds = 0;

  double MaxProcSeconds() const {
    double mx = 0;
    for (double s : proc_seconds) mx = std::max(mx, s);
    return mx;
  }
  /// Modeled end-to-end seconds under `net`.
  double SimulatedSeconds(const NetworkModel& net) const {
    return MaxProcSeconds() + overhead_seconds +
           comm_bytes / net.bandwidth_bytes_per_sec +
           static_cast<double>(comm_messages) * net.latency_sec;
  }
};

/// SUMMA on a block-cyclic grid; inputs are densified first.
class ScalapackSim {
 public:
  explicit ScalapackSim(ProcessGrid grid) : grid_(grid) {}

  /// C = A · B. Block sizes of A and B must match.
  Result<MmSimResult> Multiply(const LocalMatrix& a,
                               const LocalMatrix& b) const;

  const ProcessGrid& grid() const { return grid_; }

 private:
  ProcessGrid grid_;
};

}  // namespace dmac
