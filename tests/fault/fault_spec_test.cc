// FaultSpec defaults, validation, and the key = value file format.
#include "fault/fault_spec.h"

#include <gtest/gtest.h>

#include <string>

namespace dmac {
namespace {

TEST(FaultSpecTest, DefaultIsDisabledAndValid) {
  FaultSpec spec;
  EXPECT_FALSE(spec.enabled);
  EXPECT_FALSE(spec.AnyFaultPossible());
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, AnyFaultPossibleCoversEveryKnob) {
  FaultSpec spec;
  EXPECT_FALSE(spec.AnyFaultPossible());
  spec.crash_prob = 0.1;
  EXPECT_TRUE(spec.AnyFaultPossible());
  spec = FaultSpec{};
  spec.permanent_fail_step = 3;
  EXPECT_TRUE(spec.AnyFaultPossible());
  spec = FaultSpec{};
  spec.straggler_prob = 0.5;
  EXPECT_TRUE(spec.AnyFaultPossible());
}

TEST(FaultSpecTest, ValidateRejectsOutOfRangeKnobs) {
  FaultSpec spec;
  spec.crash_prob = 1.5;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec = FaultSpec{};
  spec.corrupt_prob = -0.1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.max_retries = -1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.backoff_base_seconds = -1;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(FaultSpecTest, ParsesKeysCommentsAndBlanks) {
  auto spec = ParseFaultSpec(
      "# smoke schedule\n"
      "seed = 7\n"
      "crash_prob = 0.02   # one worker per ~50 steps\n"
      "\n"
      "lost_block_prob = 0.001\n"
      "corrupt_prob = 0.0005\n"
      "transient_prob = 0.01\n"
      "straggler_prob = 0.1\n"
      "straggler_delay_seconds = 0.25\n"
      "speculate = false\n"
      "max_retries = 6\n"
      "backoff_base_seconds = 0.5\n"
      "permanent_fail_step = 9\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  // Writing a spec file is the opt-in: parsed specs default enabled.
  EXPECT_TRUE(spec->enabled);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->crash_prob, 0.02);
  EXPECT_DOUBLE_EQ(spec->lost_block_prob, 0.001);
  EXPECT_DOUBLE_EQ(spec->corrupt_prob, 0.0005);
  EXPECT_DOUBLE_EQ(spec->transient_prob, 0.01);
  EXPECT_DOUBLE_EQ(spec->straggler_prob, 0.1);
  EXPECT_DOUBLE_EQ(spec->straggler_delay_seconds, 0.25);
  EXPECT_FALSE(spec->speculate);
  EXPECT_EQ(spec->max_retries, 6);
  EXPECT_DOUBLE_EQ(spec->backoff_base_seconds, 0.5);
  EXPECT_EQ(spec->permanent_fail_step, 9);
}

TEST(FaultSpecTest, ExplicitEnabledFalseWins) {
  auto spec = ParseFaultSpec("enabled = false\ncrash_prob = 0.5\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->enabled);
}

TEST(FaultSpecTest, RejectsUnknownKeys) {
  auto spec = ParseFaultSpec("crash_probability = 0.5\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("unknown key"), std::string::npos)
      << spec.status();
}

TEST(FaultSpecTest, RejectsMalformedLinesAndValues) {
  EXPECT_FALSE(ParseFaultSpec("crash_prob\n").ok());
  EXPECT_FALSE(ParseFaultSpec("crash_prob = lots\n").ok());
  EXPECT_FALSE(ParseFaultSpec("speculate = maybe\n").ok());
  // Parse runs Validate: a well-formed but out-of-range spec is rejected.
  EXPECT_FALSE(ParseFaultSpec("crash_prob = 2.0\n").ok());
}

// The integer keys parse strictly, like the doubles: no silent atoi
// truncation to a prefix, to 0, or to a wrapped value.
const char* const kIntegerKeys[] = {
    "seed",        "max_retries",  "permanent_fail_step", "death_step",
    "death_worker", "net_partition_drops", "crash_at"};

TEST(FaultSpecTest, RejectsNonNumericIntegerValues) {
  for (const char* key : kIntegerKeys) {
    auto spec = ParseFaultSpec(std::string(key) + " = abc\n");
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_NE(spec.status().ToString().find("expected an integer"),
              std::string::npos)
        << spec.status();
  }
}

TEST(FaultSpecTest, RejectsTrailingCharactersInIntegerValues) {
  for (const char* key : kIntegerKeys) {
    auto spec = ParseFaultSpec(std::string(key) + " = 3x\n");
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_NE(spec.status().ToString().find("expected an integer"),
              std::string::npos)
        << spec.status();
  }
  // A plain value, negative where the key allows it, still parses.
  auto spec = ParseFaultSpec("death_step = 3\ncrash_at = -1\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->death_step, 3);
  EXPECT_EQ(spec->disk.crash_at, -1);
}

TEST(FaultSpecTest, RejectsOutOfRangeIntegerValues) {
  for (const char* key : kIntegerKeys) {
    auto spec =
        ParseFaultSpec(std::string(key) + " = 99999999999999999999999\n");
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_NE(spec.status().ToString().find("out of range"),
              std::string::npos)
        << spec.status();
  }
  // int keys reject what does not fit an int; the seed rejects negatives
  // instead of wrapping them.
  EXPECT_FALSE(ParseFaultSpec("death_worker = 2147483648\n").ok());
  EXPECT_FALSE(ParseFaultSpec("seed = -1\n").ok());
}

TEST(FaultSpecTest, ParsesDeathAndNetworkKeys) {
  auto spec = ParseFaultSpec(
      "seed = 11\n"
      "death_prob = 0.05\n"
      "death_step = 4\n"
      "death_worker = 2\n"
      "death_in_flight = true\n"
      "net_drop_prob = 0.1\n"
      "net_dup_prob = 0.2\n"
      "net_reorder_prob = 0.15\n"
      "net_delay_prob = 0.05\n"
      "net_delay_seconds = 0.01\n"
      "net_partition_prob = 0.02\n"
      "net_partition_drops = 6\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_DOUBLE_EQ(spec->death_prob, 0.05);
  EXPECT_EQ(spec->death_step, 4);
  EXPECT_EQ(spec->death_worker, 2);
  EXPECT_TRUE(spec->death_in_flight);
  EXPECT_DOUBLE_EQ(spec->net.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(spec->net.dup_prob, 0.2);
  EXPECT_DOUBLE_EQ(spec->net.reorder_prob, 0.15);
  EXPECT_DOUBLE_EQ(spec->net.delay_prob, 0.05);
  EXPECT_DOUBLE_EQ(spec->net.delay_seconds, 0.01);
  EXPECT_DOUBLE_EQ(spec->net.partition_prob, 0.02);
  EXPECT_EQ(spec->net.partition_drops, 6);
  EXPECT_TRUE(spec->AnyFaultPossible());
  EXPECT_TRUE(spec->net.Any());
}

TEST(FaultSpecTest, DeathAndNetworkKnobsCountAsFaultPossible) {
  FaultSpec spec;
  spec.death_prob = 0.01;
  EXPECT_TRUE(spec.AnyFaultPossible());
  spec = FaultSpec{};
  spec.death_step = 3;
  EXPECT_TRUE(spec.AnyFaultPossible());
  spec = FaultSpec{};
  EXPECT_FALSE(spec.net.Any());
  spec.net.reorder_prob = 0.1;
  EXPECT_TRUE(spec.net.Any());
  EXPECT_TRUE(spec.AnyFaultPossible());
}

TEST(FaultSpecTest, ValidateRejectsBadDeathAndNetworkKnobs) {
  FaultSpec spec;
  spec.death_prob = 1.5;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec = FaultSpec{};
  spec.death_step = 3;
  spec.death_worker = -1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.net.drop_prob = -0.5;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.net.delay_seconds = -1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.net.partition_drops = 0;
  EXPECT_FALSE(spec.Validate().ok());
  EXPECT_FALSE(ParseFaultSpec("net_drop_prob = 2.0\n").ok());
  EXPECT_FALSE(ParseFaultSpec("net_dropp_prob = 0.1\n").ok());
}

TEST(FaultSpecTest, ParsesDiskFaultAndCrashKnobs) {
  auto spec = ParseFaultSpec(
      "seed = 9\n"
      "disk_short_write_prob = 0.05\n"
      "disk_read_flip_prob = 0.01\n"
      "disk_enospc_prob = 0.02\n"
      "disk_fsync_fail_prob = 0.03\n"
      "crash_at = 4\n"
      "crash_soft = true\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->disk.short_write_prob, 0.05);
  EXPECT_EQ(spec->disk.read_flip_prob, 0.01);
  EXPECT_EQ(spec->disk.enospc_prob, 0.02);
  EXPECT_EQ(spec->disk.fsync_fail_prob, 0.03);
  EXPECT_EQ(spec->disk.crash_at, 4);
  EXPECT_TRUE(spec->disk.crash_soft);
  EXPECT_TRUE(spec->disk.Any());
  // Disk faults inject at the storage layer, not through the step-level
  // injector: they do not make AnyFaultPossible() true on their own.
  EXPECT_FALSE(spec->AnyFaultPossible());
}

TEST(FaultSpecTest, ValidateRejectsBadDiskKnobs) {
  FaultSpec spec;
  spec.disk.short_write_prob = 1.5;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec = FaultSpec{};
  spec.disk.read_flip_prob = -0.1;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.disk.crash_at = 0;  // 1-based; 0 would crash before any write
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.disk.crash_at = -1;  // disabled
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_FALSE(ParseFaultSpec("disk_enospc_prob = 2.0\n").ok());
  EXPECT_FALSE(ParseFaultSpec("disk_enospcc_prob = 0.1\n").ok());
}

TEST(FaultSpecTest, ShippedCrashRestartSpecParses) {
  auto spec =
      LoadFaultSpecFile(DMAC_SOURCE_DIR "/scripts/faults/crash_restart.spec");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(spec->disk.Any());
  EXPECT_GT(spec->disk.short_write_prob, 0);
  EXPECT_GT(spec->disk.enospc_prob, 0);
  EXPECT_GT(spec->disk.fsync_fail_prob, 0);
  EXPECT_GT(spec->disk.read_flip_prob, 0);
  EXPECT_EQ(spec->disk.crash_at, 4);
  // Hard crash (exit 42): the crash-loop harness's contract.
  EXPECT_FALSE(spec->disk.crash_soft);
  EXPECT_TRUE(spec->Validate().ok());
}

TEST(FaultSpecTest, LoadMissingFileIsNotFound) {
  auto spec = LoadFaultSpecFile("/nonexistent/faults.spec");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dmac
