#include "verify/oracle.hpp"

#include <algorithm>
#include <utility>

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "support/diagnostics.hpp"
#include "support/hashing.hpp"
#include "vm/vm.hpp"

namespace rustbrain::verify {

// ---------------------------------------------------------------------------
// InterpTier
// ---------------------------------------------------------------------------

const char* to_string(InterpTier tier) {
    switch (tier) {
        case InterpTier::Tree: return "tree";
        case InterpTier::Vm: return "vm";
    }
    return "vm";
}

const vm::VmProgram& CompiledProgram::bytecode() const {
    std::call_once(vm_once_, [this] {
        code_ = std::make_unique<const vm::VmProgram>(vm::compile(program));
    });
    return *code_;
}

const analysis::AstProbe& CompiledProgram::kb_probe() const {
    std::call_once(probe_once_, [this] {
        probe_ = std::make_unique<const analysis::AstProbe>(
            analysis::probe_ast(program));
    });
    return *probe_;
}

std::uint64_t source_fingerprint(std::string_view source) {
    return support::key_hash(source);
}

// ---------------------------------------------------------------------------
// VerifyCache
// ---------------------------------------------------------------------------

VerifyCache::VerifyCache(std::size_t programs_per_shard,
                         std::size_t reports_per_shard)
    : programs_(programs_per_shard), reports_(reports_per_shard) {}

namespace {

using ProgramPtr = std::shared_ptr<const CompiledProgram>;

/// Validates a program entry: it was built from exactly `source`.
auto built_from(const std::string& source) {
    return [&source](const ProgramPtr& owner) { return owner->source == source; };
}

constexpr auto copy_program = [](const ProgramPtr& entry) { return entry; };

}  // namespace

std::shared_ptr<const CompiledProgram> VerifyCache::lookup_program(
    std::uint64_t key, const std::string& source) {
    return programs_.lookup(key, built_from(source), copy_program)
        .value_or(nullptr);
}

std::shared_ptr<const CompiledProgram> VerifyCache::insert_program(
    std::uint64_t key, std::shared_ptr<const CompiledProgram> compiled) {
    // A racing thread's entry for the same source is just as canonical;
    // it is promoted — this was a genuine access to that program. Null is
    // a hash collision: the slot belongs to a different source.
    const std::string& source = compiled->source;
    return programs_
        .insert_or_find(key, std::move(compiled), built_from(source),
                        copy_program)
        .value_or(nullptr);
}

std::optional<miri::MiriReport> VerifyCache::lookup_report(
    const ReportKeyView& key) {
    return reports_.lookup(
        key.hash, [&key](const ReportEntry& owner) { return owner.matches(key); },
        [](const ReportEntry& owner) { return owner.report; });
}

void VerifyCache::insert_report(const ReportKeyView& key,
                                const miri::MiriReport& report) {
    // The first entry wins; a colliding key simply stays uncached.
    reports_.insert(key.hash, ReportEntry{key.fingerprint, key.check,
                                          key.limits, *key.input_sets, report});
}

VerifyCacheStats VerifyCache::stats() const {
    const support::ShardedLruStats programs = programs_.stats();
    const support::ShardedLruStats reports = reports_.stats();
    VerifyCacheStats stats;
    stats.program_hits = programs.hits;
    stats.program_misses = programs.misses;
    stats.report_hits = reports.hits;
    stats.report_misses = reports.misses;
    stats.programs = programs.entries;
    stats.reports = reports.entries;
    stats.program_evictions = programs.evictions;
    stats.report_evictions = reports.evictions;
    return stats;
}

const std::shared_ptr<VerifyCache>& VerifyCache::process_wide() {
    static const std::shared_ptr<VerifyCache> store =
        std::make_shared<VerifyCache>();
    return store;
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

namespace {

/// Seed for the independent second source hash (an arbitrary odd constant
/// distinct from key_hash's default seed).
constexpr std::uint64_t kCheckSeed = 0x51ED270B8A2C1495ULL;

ReportKeyView report_key(const CompiledProgram& compiled,
                         const std::vector<std::vector<std::int64_t>>& input_sets,
                         const miri::InterpLimits& limits) {
    std::uint64_t h = compiled.fingerprint;
    h = support::hash_combine(h, limits.max_steps);
    h = support::hash_combine(h, limits.max_call_depth);
    h = support::hash_combine(h, input_sets.size());
    for (const auto& inputs : input_sets) {
        h = support::hash_combine(h, inputs.size());
        for (std::int64_t value : inputs) {
            h = support::hash_combine(h, static_cast<std::uint64_t>(value));
        }
    }
    ReportKeyView key;
    key.hash = h;
    key.fingerprint = compiled.fingerprint;
    key.check = compiled.check;
    key.limits = limits;
    key.input_sets = &input_sets;
    return key;
}

}  // namespace

Oracle::Oracle(OracleOptions options)
    : limits_(options.limits),
      cache_(options.cache != nullptr ? std::move(options.cache)
                                      : VerifyCache::process_wide()),
      caching_(options.caching),
      interp_(options.interp) {}

const Oracle& Oracle::shared_default() {
    static const Oracle oracle;
    return oracle;
}

std::shared_ptr<const CompiledProgram> Oracle::compile_uncached(
    const std::string& source, std::uint64_t fingerprint,
    std::optional<lang::Program> parsed) const {
    std::string parse_error;
    if (!parsed) parsed = lang::try_parse(source, &parse_error);
    auto compiled = std::make_shared<CompiledProgram>(
        parsed ? std::move(*parsed) : lang::Program(0));
    compiled->fingerprint = fingerprint;
    compiled->check = support::key_hash(source, kCheckSeed);
    compiled->source = source;
    if (!parsed) {
        compiled->front_end = CompiledProgram::FrontEnd::ParseError;
        compiled->error = support::cap_summary(std::move(parse_error));
        return compiled;
    }

    std::string type_error;
    if (!lang::type_check(compiled->program, &type_error)) {
        compiled->front_end = CompiledProgram::FrontEnd::TypeError;
        compiled->error = support::cap_summary(std::move(type_error));
    }
    return compiled;
}

std::shared_ptr<const CompiledProgram> Oracle::compile_guarded(
    const std::string& source, std::optional<lang::Program> parsed,
    VerifyOutcome* outcome, bool* canonical) const {
    const std::uint64_t fingerprint = source_fingerprint(source);
    if (!caching_) {
        if (canonical != nullptr) *canonical = false;
        return compile_uncached(source, fingerprint, std::move(parsed));
    }
    if (auto cached = cache_->lookup_program(fingerprint, source)) {
        if (outcome != nullptr) outcome->program_cached = true;
        if (canonical != nullptr) *canonical = true;
        return cached;
    }
    auto compiled = compile_uncached(source, fingerprint, std::move(parsed));
    auto stored = cache_->insert_program(fingerprint, compiled);
    if (stored == nullptr) {
        // 64-bit hash collision: the slot is owned by a different source.
        // This source keeps its fresh compile and must not key the report
        // cache (the fingerprint would alias the owner's reports).
        if (canonical != nullptr) *canonical = false;
        return compiled;
    }
    if (canonical != nullptr) *canonical = true;
    return stored;
}

std::shared_ptr<const CompiledProgram> Oracle::compile(
    const std::string& source, VerifyOutcome* outcome) const {
    return compile_guarded(source, std::nullopt, outcome, nullptr);
}

std::shared_ptr<const CompiledProgram> Oracle::compile(
    const std::string& source, lang::Program parsed, VerifyOutcome* outcome) const {
    return compile_guarded(source, std::move(parsed), outcome, nullptr);
}

miri::MiriReport Oracle::interpret(
    const CompiledProgram& compiled,
    const std::vector<std::vector<std::int64_t>>& input_sets) const {
    // Mirrors MiriLite::test (the uncached tree-walk reference) run for run,
    // with the front end already paid.
    miri::MiriReport report;
    miri::InterpLimits probe = limits_;
    if (interp_ == InterpTier::Vm) {
        probe.max_steps = std::min(limits_.max_steps, kVmAfterSteps);
    }
    for (const auto& inputs : miri::input_runs(input_sets)) {
        miri::RunResult result =
            miri::Interpreter(compiled.program, inputs, probe).run();
        if (result.steps > probe.max_steps &&
            probe.max_steps < limits_.max_steps) {
            // Past the cap: restart from the beginning on the VM.
            result =
                vm::Vm(compiled.program, compiled.bytecode(), inputs, limits_)
                    .run();
        }
        report.total_steps += result.steps;
        report.outputs.push_back(std::move(result.output));
        if (result.finding) report.add_distinct(*result.finding);
    }
    return report;
}

miri::MiriReport Oracle::test_source(
    const std::string& source,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    VerifyOutcome* outcome) const {
    bool canonical = false;
    const std::shared_ptr<const CompiledProgram> compiled =
        compile_guarded(source, std::nullopt, outcome, &canonical);
    if (!compiled->ok()) {
        // Byte-identical to MiriLite's front-end failure reports.
        miri::MiriReport report;
        report.findings.push_back(
            miri::Finding{miri::UbCategory::CompileError, compiled->error, {}});
        return report;
    }
    if (!caching_ || !canonical) return interpret(*compiled, input_sets);
    const ReportKeyView key = report_key(*compiled, input_sets, limits_);
    if (auto cached = cache_->lookup_report(key)) {
        if (outcome != nullptr) outcome->report_cached = true;
        return std::move(*cached);
    }
    const miri::MiriReport report = interpret(*compiled, input_sets);
    cache_->insert_report(key, report);
    return report;
}

std::optional<screen::ScreenVerdict> Oracle::screen(
    const std::string& source,
    const std::vector<std::vector<std::int64_t>>& input_sets) const {
    const std::shared_ptr<const CompiledProgram> compiled = compile(source);
    if (!compiled->ok()) return std::nullopt;
    screen::ScreenVerdict verdict =
        screen::screen_program(compiled->program, input_sets, limits_);
    screens_.fetch_add(1, std::memory_order_relaxed);
    screen_ops_.fetch_add(verdict.ops, std::memory_order_relaxed);
    switch (verdict.kind) {
        case screen::VerdictKind::ProvenSafe:
            screen_proven_.fetch_add(1, std::memory_order_relaxed);
            break;
        case screen::VerdictKind::LikelyUB:
            screen_likely_.fetch_add(1, std::memory_order_relaxed);
            break;
        case screen::VerdictKind::Unknown:
            screen_unknown_.fetch_add(1, std::memory_order_relaxed);
            break;
    }
    return verdict;
}

std::string Oracle::stats_summary() const {
    const VerifyCacheStats s = stats();
    return std::to_string(s.programs) + " compiled programs, " +
           std::to_string(s.reports) + " memoized reports, " +
           std::to_string(s.report_hits) + " report hits / " +
           std::to_string(s.report_misses) + " misses, " +
           std::to_string(s.program_evictions + s.report_evictions) +
           " evictions" + (caching_ ? "" : " (caching off)");
}

ScreenStats Oracle::screen_stats() const {
    ScreenStats s;
    s.screens = screens_.load(std::memory_order_relaxed);
    s.proven_safe = screen_proven_.load(std::memory_order_relaxed);
    s.likely_ub = screen_likely_.load(std::memory_order_relaxed);
    s.unknown = screen_unknown_.load(std::memory_order_relaxed);
    s.ops = screen_ops_.load(std::memory_order_relaxed);
    return s;
}

std::string Oracle::screen_summary() const {
    const ScreenStats s = screen_stats();
    return std::to_string(s.screens) + " screened: " +
           std::to_string(s.proven_safe) + " proven-safe, " +
           std::to_string(s.likely_ub) + " likely-ub, " +
           std::to_string(s.unknown) + " unknown, " + std::to_string(s.ops) +
           " abstract ops";
}

}  // namespace rustbrain::verify
