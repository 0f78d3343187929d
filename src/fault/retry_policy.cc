#include "fault/retry_policy.h"

#include <algorithm>
#include <cmath>

namespace dmac {

double RetryPolicy::BackoffSeconds(int attempt) const {
  if (attempt < 0) attempt = 0;
  // Clamp the exponent so a pathological retry budget cannot overflow the
  // simulated clock (2^40 · base is already ~35 years at the default base).
  return base_seconds * std::ldexp(1.0, std::min(attempt, 40));
}

}  // namespace dmac
