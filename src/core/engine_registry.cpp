#include "core/engine_registry.hpp"

#include "baselines/expert_model.hpp"
#include "baselines/fixed_pipeline.hpp"
#include "baselines/standalone_llm.hpp"
#include "core/rustbrain.hpp"

namespace rustbrain::core {

// ---------------------------------------------------------------------------
// EngineOptions
// ---------------------------------------------------------------------------

EngineOptions EngineOptions::parse(const std::string& spec) {
    EngineOptions options;
    options.values = support::OptionMap::parse(spec).values;
    return options;
}

// ---------------------------------------------------------------------------
// EngineRegistry
// ---------------------------------------------------------------------------

std::unique_ptr<RepairEngine> EngineRegistry::build(
    const std::string& id, const EngineOptions& options,
    const EngineBuildContext& context) const {
    std::unique_ptr<RepairEngine> engine = Registry::build(id, options, context);
    engine->set_trace_sink(context.trace);
    return engine;
}

namespace {

/// The four settings every LLM engine reads; each engine's defaults stay
/// its config's own.
template <class Config>
void read_llm_settings(const EngineOptions& options, Config& config) {
    config.model = options.get("model", config.model);
    config.temperature = options.get_double("temperature", config.temperature);
    config.seed = options.get_u64("seed", config.seed);
    config.policy = options.get("policy", config.policy);
}

std::unique_ptr<RepairEngine> build_rustbrain(const EngineOptions& options,
                                              const EngineBuildContext& context) {
    options.check_known({"model", "temperature", "seed", "knowledge", "feedback",
                         "rollback", "features", "max_solutions", "max_steps",
                         "judge_error", "policy"});
    RustBrainConfig config;
    read_llm_settings(options, config);
    config.use_knowledge_base =
        options.get_bool("knowledge", config.use_knowledge_base);
    config.use_feedback = options.get_bool("feedback", config.use_feedback);
    config.use_adaptive_rollback =
        options.get_bool("rollback", config.use_adaptive_rollback);
    config.use_feature_extraction =
        options.get_bool("features", config.use_feature_extraction);
    config.max_solutions = options.get_int("max_solutions", config.max_solutions);
    config.max_steps_per_solution =
        options.get_int("max_steps", config.max_steps_per_solution);
    config.internal_judge_error =
        options.get_double("judge_error", config.internal_judge_error);
    return std::make_unique<RustBrain>(
        config, config.use_knowledge_base ? context.knowledge_base : nullptr,
        config.use_feedback ? context.feedback : nullptr,
        context.backend_factory, context.oracle);
}

std::unique_ptr<RepairEngine> build_standalone(const EngineOptions& options,
                                               const EngineBuildContext& context) {
    options.check_known({"model", "temperature", "seed", "attempts", "policy"});
    baselines::StandaloneConfig config;
    read_llm_settings(options, config);
    config.attempts = options.get_int("attempts", config.attempts);
    return std::make_unique<baselines::StandaloneLlmRepair>(
        config, context.backend_factory, context.oracle);
}

std::unique_ptr<RepairEngine> build_fixed_pipeline(
    const EngineOptions& options, const EngineBuildContext& context) {
    options.check_known({"model", "temperature", "seed", "max_iterations",
                         "policy"});
    baselines::FixedPipelineConfig config;
    read_llm_settings(options, config);
    config.max_iterations =
        options.get_int("max_iterations", config.max_iterations);
    return std::make_unique<baselines::FixedPipelineRepair>(
        config, context.backend_factory, context.oracle);
}

std::unique_ptr<RepairEngine> build_expert(const EngineOptions& options,
                                           const EngineBuildContext& context) {
    (void)context;
    options.check_known({"seed", "policy"});
    return std::make_unique<baselines::ExpertModelRepair>(
        options.get_u64("seed", 42), options.get("policy", "paper"));
}

}  // namespace

const EngineRegistry& EngineRegistry::builtin() {
    static const EngineRegistry registry = [] {
        EngineRegistry r;
        r.add({"rustbrain",
               "fast/slow thinking with agents, knowledge base and feedback "
               "(the paper's framework)",
               build_rustbrain});
        r.add({"standalone",
               "bare model, one candidate per attempt, no scaffolding "
               "(Figs 8/9 base columns)",
               build_standalone});
        r.add({"fixed-pipeline",
               "RustAssistant-style fixed step sequence with restart-from-T0 "
               "rollback (Fig 12)",
               build_fixed_pipeline});
        r.add({"expert",
               "calibrated human-expert repair times, always correct "
               "(Table I)",
               build_expert});
        return r;
    }();
    return registry;
}

}  // namespace rustbrain::core
