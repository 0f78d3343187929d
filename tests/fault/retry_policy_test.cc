// RetryPolicy unit tests: backoff arithmetic and the retryable set.
#include "fault/retry_policy.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dmac {
namespace {

TEST(RetryPolicyTest, DefaultConfigMatchesLegacyExecutorArithmetic) {
  RetryPolicy p;
  p.base_seconds = 0.01;
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_DOUBLE_EQ(p.BackoffSeconds(attempt),
                     0.01 * std::ldexp(1.0, attempt))
        << "attempt " << attempt;
  }
  // The exponent clamps at 40 so pathological budgets stay finite.
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(100), 0.01 * std::ldexp(1.0, 40));
  // Negative attempts clamp to the base delay.
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(-3), 0.01);
}

TEST(RetryPolicyTest, RetryableSetIsUnavailableAndDataLoss) {
  EXPECT_TRUE(RetryPolicy::Retryable(Status::Unavailable("x")));
  EXPECT_TRUE(RetryPolicy::Retryable(Status::DataLoss("x")));
  EXPECT_FALSE(RetryPolicy::Retryable(Status::Internal("x")));
  EXPECT_FALSE(RetryPolicy::Retryable(Status::Invalid("x")));
  EXPECT_FALSE(RetryPolicy::Retryable(Status::Ok()));
}

}  // namespace
}  // namespace dmac
