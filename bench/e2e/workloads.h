// The three applications the end-to-end benchmark runs (README.md in this
// directory explains why each one is there).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "common/result.h"
#include "lang/program.h"
#include "matrix/local_matrix.h"

namespace dmac::e2e {

/// Workload names in the benchmark's fixed order.
const std::vector<std::string>& WorkloadNames();

/// What the input generators need from the command line.
struct WorkloadOptions {
  uint64_t seed = 42;
  /// Divides every matrix dimension and factor count (--quick uses 4).
  int size_divisor = 1;
  /// Cost-model rates for the searched workload (the committed
  /// CALIBRATION.json).
  std::string calibration_path;
};

/// One application with its generated inputs and its run configuration.
/// Bindings point into `inputs`, so a Workload is neither copied nor moved.
struct Workload {
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  std::string name;
  /// Input shapes, for the result file.
  std::string description;
  Program program;
  RunConfig config;
  std::map<std::string, LocalMatrix> inputs;
  Bindings bindings;
};

/// Generates `name`'s inputs from `options.seed` at the block size
/// ChooseProgramBlockSize picks for the program, as dmac_run does.
Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               const WorkloadOptions& options);

}  // namespace dmac::e2e
