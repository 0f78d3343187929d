// FaultLayer::Create: a run whose options enable no fault handling gets no
// layer at all, each of the three triggers gets one, and invalid fault or
// disk specs fail setup with kInvalidArgument.
#include "runtime/fault_layer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace dmac {
namespace {

namespace fs = std::filesystem;

/// The executor state Create wires the layer to: an empty plan, so no
/// callback ever runs.
struct Harness {
  Plan plan;
  NodeTable nodes;
  std::vector<int> last_consumer;
  ScalarEnv scalars;
  ExecStats stats;

  Result<std::unique_ptr<FaultLayer>> Create(const ExecutorOptions& opts) {
    return FaultLayer::Create(opts, plan, /*runner=*/nullptr, &nodes,
                              &last_consumer, &scalars, &stats);
  }
};

/// A fresh checkpoint directory, removed with its contents on scope exit.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("dmac_fault_layer_" + tag + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

TEST(FaultLayerTest, DefaultOptionsConstructNoLayer) {
  Harness h;
  auto layer = h.Create(ExecutorOptions{});
  ASSERT_TRUE(layer.ok()) << layer.status();
  EXPECT_EQ(*layer, nullptr);
}

TEST(FaultLayerTest, EachTriggerConstructsALayer) {
  Harness h;
  ExecutorOptions faults;
  faults.fault.enabled = true;
  auto layer = h.Create(faults);
  ASSERT_TRUE(layer.ok()) << layer.status();
  EXPECT_NE(*layer, nullptr);

  ExecutorOptions cadence;
  cadence.checkpoint_every = 2;
  layer = h.Create(cadence);
  ASSERT_TRUE(layer.ok()) << layer.status();
  EXPECT_NE(*layer, nullptr);

  TempDir dir("trigger");
  ExecutorOptions durable;
  durable.checkpoint_dir = dir.path;
  layer = h.Create(durable);
  ASSERT_TRUE(layer.ok()) << layer.status();
  EXPECT_NE(*layer, nullptr);
}

TEST(FaultLayerTest, OutOfRangeDeathWorkerIsInvalid) {
  Harness h;
  ExecutorOptions opts;
  opts.num_workers = 4;
  opts.fault.enabled = true;
  opts.fault.death_step = 0;
  opts.fault.death_worker = 4;
  auto layer = h.Create(opts);
  ASSERT_FALSE(layer.ok());
  EXPECT_EQ(layer.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultLayerTest, InvalidDiskSpecIsInvalid) {
  Harness h;
  TempDir dir("disk");
  ExecutorOptions opts;
  opts.checkpoint_dir = dir.path;
  opts.fault.disk.short_write_prob = 1.5;
  auto layer = h.Create(opts);
  ASSERT_FALSE(layer.ok());
  EXPECT_EQ(layer.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dmac
