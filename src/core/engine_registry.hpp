// EngineRegistry — build any repair engine from a string id + option map.
//
// The seam that lets BatchRunner, the benches and the examples select
// strategies declaratively: "rustbrain" / "standalone" / "fixed-pipeline" /
// "expert" plus options like "model=gpt-4,temperature=0.7,knowledge=off".
// Unknown ids and unknown option keys both throw std::invalid_argument with
// a message listing what IS available, so a typo in a sweep config fails
// loudly instead of silently running the default.
#pragma once

#include <memory>
#include <string>

#include "core/feedback.hpp"
#include "core/repair_engine.hpp"
#include "kb/knowledge_base.hpp"
#include "llm/backend.hpp"
#include "support/options.hpp"
#include "support/registry.hpp"

namespace rustbrain::verify {
class Oracle;
}  // namespace rustbrain::verify

namespace rustbrain::core {

/// String-keyed engine options ("model=gpt-4,seed=7"). The parsing and typed
/// getters live in support::OptionMap, shared with gen::GeneratorRegistry.
struct EngineOptions : support::OptionMap {
    /// Parse a "key=value,key=value" spec (empty string => no options).
    /// Throws std::invalid_argument on a malformed entry.
    static EngineOptions parse(const std::string& spec);
};

/// Everything an engine may be wired to at build time. All members are
/// optional; engines ignore what they do not use.
struct EngineBuildContext {
    const kb::KnowledgeBase* knowledge_base = nullptr;
    FeedbackStore* feedback = nullptr;
    llm::BackendFactory backend_factory;  // empty => SimLLM
    TraceSink* trace = nullptr;
    /// Verification oracle shared by every engine built from this context
    /// (BatchRunner workers included — it is thread-safe). Null =>
    /// verify::Oracle::shared_default(). Caching on or off never changes
    /// results; it is a pure performance knob.
    std::shared_ptr<const verify::Oracle> oracle;
};

class EngineRegistry
    : public support::Registry<std::unique_ptr<RepairEngine>(
          const EngineOptions& options, const EngineBuildContext& context)> {
  public:
    EngineRegistry() : Registry("engine") {}

    /// Build an engine by id and attach `context.trace` to it. Throws
    /// std::invalid_argument listing the available ids when `id` is
    /// unknown, or naming the offending key when `options` contains one the
    /// engine does not understand.
    [[nodiscard]] std::unique_ptr<RepairEngine> build(
        const std::string& id, const EngineOptions& options = {},
        const EngineBuildContext& context = {}) const;

    /// The four paper engines: rustbrain, standalone, fixed-pipeline,
    /// expert. Registered eagerly (no static-initialization-order games).
    static const EngineRegistry& builtin();
};

}  // namespace rustbrain::core
