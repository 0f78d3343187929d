// The per-query governance context threaded through the runtime
// (docs/governance.md).
#pragma once

#include <cstdint>
#include <memory>

#include "governor/cancel_token.h"
#include "governor/memory_budget.h"
#include "governor/spill_store.h"

namespace dmac {

/// Everything the runtime needs to govern one query: the cancellation
/// token, the memory budget, and the spill store that backs it. Cheap to
/// copy (three shared handles); a default-constructed context is inert and
/// the runtime takes its fast ungoverned paths.
struct GovernorContext {
  CancelToken token;
  std::shared_ptr<MemoryBudget> budget;
  std::shared_ptr<SpillStore> spill;
};

}  // namespace dmac
