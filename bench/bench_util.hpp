#pragma once

// Shared helpers for the figure/table harnesses: trained-policy acquisition
// and episode-count overrides so quick runs are possible via environment
// variables (ICOIL_EPISODES, ICOIL_EPOCHS, ICOIL_EXPERT_EPISODES).

#include <memory>

#include "sim/evaluator.hpp"
#include "sim/policy_store.hpp"

namespace icoil::bench {

inline int episodes_override(int fallback) {
  return sim::env_int_or("ICOIL_EPISODES", fallback);
}

/// The shared trained policy (cached on disk next to the working directory).
inline std::unique_ptr<il::IlPolicy> shared_policy() {
  return sim::get_or_train_policy(sim::default_policy_options());
}

}  // namespace icoil::bench
