#include "core/controller_registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace icoil::core {

namespace {

std::string join_keys(const std::vector<std::string>& keys) {
  std::string out;
  for (const std::string& k : keys) {
    if (!out.empty()) out += ", ";
    out += k;
  }
  return out;
}

}  // namespace

ControllerRegistry::ControllerRegistry() {
  add({"icoil", "iCOIL", "HSA-switched hybrid of IL and CO (the paper's method)",
       /*needs_policy=*/true, [](const ControllerBuildArgs& args) {
         return std::make_unique<IcoilController>(
             args.icoil != nullptr ? *args.icoil : IcoilConfig{}, *args.policy);
       }});
  add({"icoil-safe", "iCOIL+guard",
       "iCOIL with the forward-simulation safety guard on IL frames",
       /*needs_policy=*/true, [](const ControllerBuildArgs& args) {
         IcoilConfig config = args.icoil != nullptr ? *args.icoil : IcoilConfig{};
         config.safety.enabled = true;
         return std::make_unique<IcoilController>(config, *args.policy);
       }});
  add({"il", "IL [2]", "pure imitation-learning baseline (BEV DNN every frame)",
       /*needs_policy=*/true, [](const ControllerBuildArgs& args) {
         return std::make_unique<IlController>(*args.policy);
       }});
  add({"co", "CO (ref)",
       "pure constrained-optimization baseline (hybrid-A* + SQP MPC)",
       /*needs_policy=*/false, [](const ControllerBuildArgs&) {
         return std::make_unique<CoController>(co::CoPlannerConfig{},
                                               vehicle::VehicleParams{});
       }});
  add({"co-fast", "CO (fast)",
       "CO with a shortened MPC horizon and fewer SQP rounds for tight frames",
       /*needs_policy=*/false, [](const ControllerBuildArgs&) {
         co::CoPlannerConfig config;
         config.trajopt.horizon = 10;
         config.trajopt.sqp_iterations = 2;
         return std::make_unique<CoController>(config, vehicle::VehicleParams{});
       }});
}

ControllerRegistry& ControllerRegistry::instance() {
  static ControllerRegistry registry;
  return registry;
}

void ControllerRegistry::add(ControllerSpec spec) {
  for (ControllerSpec& existing : specs_) {
    if (existing.key == spec.key) {
      existing = std::move(spec);
      return;
    }
  }
  specs_.push_back(std::move(spec));
}

const ControllerSpec* ControllerRegistry::find(const std::string& key) const {
  for (const ControllerSpec& spec : specs_)
    if (spec.key == key) return &spec;
  return nullptr;
}

const ControllerSpec& ControllerRegistry::at(const std::string& key) const {
  const ControllerSpec* spec = find(key);
  if (spec == nullptr)
    throw std::invalid_argument("unknown controller \"" + key +
                                "\" (known: " + join_keys(keys()) + ")");
  return *spec;
}

std::vector<std::string> ControllerRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const ControllerSpec& spec : specs_) out.push_back(spec.key);
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// The one lookup + policy-requirement check behind build() and factory().
const ControllerSpec& validated(const ControllerRegistry& registry,
                                const std::string& key,
                                const ControllerBuildArgs& args) {
  const ControllerSpec& spec = registry.at(key);
  if (spec.needs_policy && args.policy == nullptr)
    throw std::invalid_argument("controller \"" + key +
                                "\" needs a trained IL policy "
                                "(ControllerBuildArgs::policy is null)");
  return spec;
}

}  // namespace

std::unique_ptr<Controller> ControllerRegistry::build(
    const std::string& key, ControllerBuildArgs args) const {
  return validated(*this, key, args).build(args);
}

ControllerFactory ControllerRegistry::factory(const std::string& key,
                                              ControllerBuildArgs args) const {
  const ControllerSpec& spec = validated(*this, key, args);
  // The factory is invoked from pool workers long after the caller's config
  // locals are gone: own a copy of the override, not a pointer into it.
  const auto icoil_copy =
      args.icoil != nullptr ? std::make_shared<IcoilConfig>(*args.icoil)
                            : nullptr;
  return [build = spec.build, policy = args.policy, icoil_copy] {
    ControllerBuildArgs built;
    built.policy = policy;
    built.icoil = icoil_copy.get();
    return build(built);
  };
}

}  // namespace icoil::core
