// verify::Oracle — the single entry point for "verify this source against
// these inputs", with compile-once and report memoization.
//
// Every verification in the stack — fast thinking's F1 detection, slow
// thinking's per-step checks, the semantic judge's candidate/reference
// runs, KB seeding, corpus validation, and Corpus Forge's rejection
// sampler — used to funnel through MiriLite::test_source, which re-parses
// and re-typechecks the candidate from scratch on every call. The Oracle
// splits that work into two cached stages:
//
//   1. compile-once: a sharded program cache keyed by source_fingerprint
//      (support::key_hash) of the source text holds parsed and typechecked
//      programs, every name bound on the tree (DESIGN.md §4), so each
//      distinct source pays the front end exactly once per process; a
//      caller that already holds the parse of a source (the corpus forge,
//      which printed it) hands it over and the miss skips the parse
//      (DESIGN.md §22);
//   2. report memoization: a sharded report cache keyed by (program
//      fingerprint, input-set fingerprint, interpreter limits) returns the
//      MiriReport of a previously-interpreted combination verbatim.
//
// Bit-identity guarantee: MiriReports are a pure function of (source,
// inputs, limits), so a cached answer is byte-identical to a live one —
// sweeps and forge runs with the cache on and off produce identical
// CaseResults and corpora. The cache is therefore a pure performance
// knob, like llm::PromptCache, and it is the same store: two
// support::ShardedLrus (16 cache-line-aligned shards counting their own
// hits and misses, DESIGN.md §16), one process-wide instance. Unlike the
// prompt cache, every entry keeps its full key and re-checks it on a hit.
//
// Screening on demand: test_source always interprets. A caller that wants
// the static pre-screener's verdict (screen/screen.hpp) asks for it with
// screen() — today only the `screened` thinking policy does. Verdicts are
// not memoized: only that opt-in policy pays for them, and the report
// cache stays a store of MiriLite answers alone.
//
// OracleOptions is the only configuration surface. Caching, the
// interpreter tier and the worker count never change a result byte: the
// identity table in tests/identity_matrix.hpp sweeps every registry engine
// and the forge under each of them against a serial, uncached tree walk.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/prune.hpp"
#include "lang/ast.hpp"
#include "miri/interp.hpp"
#include "miri/mirilite.hpp"
#include "screen/screen.hpp"
#include "support/lru.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::verify {

/// Which interpreter executes uncached runs. Both tiers are
/// observationally identical — byte-equal findings, outputs, and step
/// counts (asserted corpus-wide in tests/miri_vm_test.cpp and the
/// differential stress tests) — so the tier is a pure performance knob,
/// exactly like the caches:
///   Tree — the tree walk (the reference semantics) for every run; never
///          builds bytecode;
///   Vm   — the tree walk capped at kVmAfterSteps; a run that passes the
///          cap starts again from the beginning on the bytecode VM running
///          vm::compile output, under the real limits (DESIGN.md §12).
enum class InterpTier { Tree, Vm };

/// "tree" / "vm".
[[nodiscard]] const char* to_string(InterpTier tier);

/// The Vm tier's tree-walk step cap. Runs are pure functions of (program,
/// inputs, limits) and only the step counter reads max_steps, so a capped
/// run that stops at or below the cap is the full run.
inline constexpr std::uint64_t kVmAfterSteps = std::uint64_t{1} << 10;

/// The program cache's key for `source` (support::key_hash). It only
/// identifies an entry; hits re-check the full source text.
[[nodiscard]] std::uint64_t source_fingerprint(std::string_view source);

/// A source text after the front end: parsed and typechecked (when ok()),
/// or the verbatim parse/typecheck error MiriLite would have reported.
/// Immutable once built — the program, its types and bindings written by
/// the type checker, is shared by every interpretation of this source, and
/// every tier runs it as it stands. No tier runs a program that failed the
/// type check.
struct CompiledProgram {
    enum class FrontEnd { Ok, ParseError, TypeError };

    /// Holds `parsed`, or an empty `lang::Program(0)` after a parse error.
    explicit CompiledProgram(lang::Program parsed) : program(std::move(parsed)) {}

    std::uint64_t fingerprint = 0;  // source_fingerprint(source)
    std::uint64_t check = 0;        // independent second hash (collision guard)
    std::string source;             // the exact text compiled (collision guard)
    FrontEnd front_end = FrontEnd::Ok;
    std::string error;              // set unless front_end == Ok
    lang::Program program;          // valid only when ok()

    [[nodiscard]] bool ok() const { return front_end == FrontEnd::Ok; }

    /// vm::compile(program) — what a restarted run executes — built lazily
    /// (thread-safe, exactly once) on first use, so only sources with a
    /// run past kVmAfterSteps pay for it, and the program cache amortizes
    /// it across every later restart of this source. Only valid when ok().
    [[nodiscard]] const vm::VmProgram& bytecode() const;

    /// analysis::probe_ast(program) — what a knowledge-base consult of this
    /// source reads — built lazily (thread-safe, exactly once) on first
    /// use, so only consulted sources pay for it. A pure function of
    /// the source text: the typecheck only writes types and bindings, and
    /// the probe reads neither. Valid unless
    /// front_end == ParseError.
    [[nodiscard]] const analysis::AstProbe& kb_probe() const;

  private:
    mutable std::once_flag vm_once_;
    /// Null until the first restart; borrows from `program`.
    mutable std::unique_ptr<const vm::VmProgram> code_;
    mutable std::once_flag probe_once_;
    /// Null until the first consult, so the many never-consulted candidates
    /// carry a pointer rather than a whole vector.
    mutable std::unique_ptr<const analysis::AstProbe> probe_;
};

struct VerifyCacheStats {
    std::uint64_t program_hits = 0;
    std::uint64_t program_misses = 0;
    std::uint64_t report_hits = 0;
    std::uint64_t report_misses = 0;
    std::size_t programs = 0;  // distinct compiled sources held
    std::size_t reports = 0;   // distinct memoized reports held
    /// LRU evictions: single least-recently-used entries dropped at
    /// capacity.
    std::uint64_t program_evictions = 0;
    std::uint64_t report_evictions = 0;

    [[nodiscard]] double report_hit_rate() const {
        const std::uint64_t total = report_hits + report_misses;
        return total == 0 ? 0.0 : static_cast<double>(report_hits) / total;
    }
};

/// Identity of a memoized report, borrowed from the caller for lookups so
/// the hot (hit) path never copies the input vectors. The 64-bit `hash`
/// routes and indexes; the remaining fields are the full key material,
/// re-verified on every hit. `fingerprint` + `check` are two independent
/// hashes of the source text, so even after a program eviction changes
/// which source is canonical for a fingerprint, a collision cannot be
/// served another source's report (the bit-identity contract beats a few
/// compares).
struct ReportKeyView {
    std::uint64_t hash = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t check = 0;
    miri::InterpLimits limits;
    const std::vector<std::vector<std::int64_t>>* input_sets = nullptr;
};

/// The store behind Oracle: a support::ShardedLru of programs and one of
/// reports. Thread-safe; shared across BatchRunner workers, repeated
/// sweeps, and every subsystem in the process (the process_wide()
/// instance) or scoped per experiment (tests).
///
/// Collision safety: entries keep their full key material (the source text
/// for programs, ReportKey for reports) and verify it on every hit; a
/// 64-bit hash collision is answered by recomputing, never by the wrong
/// entry. Growth is bounded: each shard is a support::LruMap — a full
/// shard evicts its least-recently-used entry (hits promote, so hot
/// programs and reports survive pressure). Bit-identity makes dropping
/// entries always safe — only speed is lost.
class VerifyCache {
  public:
    /// Default: true LRU eviction at ~64k programs / ~128k reports total.
    /// The capacities are exposed so tests can exercise eviction pressure
    /// cheaply.
    explicit VerifyCache(
        std::size_t programs_per_shard = kDefaultProgramsPerShard,
        std::size_t reports_per_shard = kDefaultReportsPerShard);

    /// Returns the canonical compiled program for `key` if it was built
    /// from exactly `source`, counting a hit or a miss.
    std::shared_ptr<const CompiledProgram> lookup_program(
        std::uint64_t key, const std::string& source);
    /// Inserts `compiled` unless an entry exists; returns the canonical
    /// entry (ours, or an equal racing thread's), or null when the slot is
    /// owned by a different source (hash collision) — the caller then uses
    /// its fresh compile uncached.
    std::shared_ptr<const CompiledProgram> insert_program(
        std::uint64_t key, std::shared_ptr<const CompiledProgram> compiled);

    std::optional<miri::MiriReport> lookup_report(const ReportKeyView& key);
    /// Copies the key material (including the input vectors) into the entry.
    void insert_report(const ReportKeyView& key, const miri::MiriReport& report);

    [[nodiscard]] VerifyCacheStats stats() const;

    /// The process-wide store every default-constructed Oracle shares.
    static const std::shared_ptr<VerifyCache>& process_wide();

  private:
    /// Per-shard caps (16 shards): ~64k programs / ~128k reports total.
    static constexpr std::size_t kDefaultProgramsPerShard = 4096;
    static constexpr std::size_t kDefaultReportsPerShard = 8192;
    struct ReportEntry {
        std::uint64_t fingerprint = 0;
        std::uint64_t check = 0;
        miri::InterpLimits limits;
        std::vector<std::vector<std::int64_t>> input_sets;
        miri::MiriReport report;

        [[nodiscard]] bool matches(const ReportKeyView& key) const {
            return fingerprint == key.fingerprint && check == key.check &&
                   limits.max_steps == key.limits.max_steps &&
                   limits.max_call_depth == key.limits.max_call_depth &&
                   input_sets == *key.input_sets;
        }
    };

    support::ShardedLru<std::shared_ptr<const CompiledProgram>> programs_;
    support::ShardedLru<ReportEntry> reports_;
};

struct OracleOptions {
    miri::InterpLimits limits;
    /// Store to memoize into; null => VerifyCache::process_wide().
    std::shared_ptr<VerifyCache> cache;
    /// Memoize compiles and reports in `cache`; off recomputes everything
    /// and touches the store not at all.
    bool caching = true;
    /// Which interpreter runs uncached work. Pure performance knob:
    /// reports are byte-identical across tiers.
    InterpTier interp = InterpTier::Vm;
};

/// Counters for Oracle::screen (oracle-lifetime, like VerifyCacheStats).
struct ScreenStats {
    std::uint64_t screens = 0;      // verdicts returned
    std::uint64_t proven_safe = 0;
    std::uint64_t likely_ub = 0;    // category statically pinned
    std::uint64_t unknown = 0;      // screener degraded
    std::uint64_t ops = 0;          // total abstract ops spent screening
};

/// Per-call cache observation, for callers that surface hit/miss telemetry
/// (AgentContext stamps it into Verify trace events).
struct VerifyOutcome {
    bool program_cached = false;
    bool report_cached = false;
};

class Oracle {
  public:
    explicit Oracle(OracleOptions options = {});
    virtual ~Oracle() = default;
    Oracle(const Oracle&) = delete;
    Oracle& operator=(const Oracle&) = delete;

    /// Parse + typecheck + interpret `source` once per input vector,
    /// byte-identical to MiriLite::test_source over the same limits.
    /// Thread-safe; `outcome` (optional) reports where the answer came from.
    [[nodiscard]] miri::MiriReport test_source(
        const std::string& source,
        const std::vector<std::vector<std::int64_t>>& input_sets,
        VerifyOutcome* outcome = nullptr) const;

    /// The static pre-screener's verdict on `source` over `input_sets`
    /// (default ScreenOptions, this Oracle's limits), compiled through the
    /// program cache; nullopt when the front end fails. Runs the tree walk
    /// under a screening budget (screen::screen_program) and never reads or
    /// fills the report cache.
    [[nodiscard]] std::optional<screen::ScreenVerdict> screen(
        const std::string& source,
        const std::vector<std::vector<std::int64_t>>& input_sets) const;

    /// Front-end half only: the cached parsed + typechecked program for `source` (subsystems that also need the AST — KB
    /// seeding and consults, the forge — share the compile with later
    /// verifications).
    [[nodiscard]] std::shared_ptr<const CompiledProgram> compile(
        const std::string& source, VerifyOutcome* outcome = nullptr) const;

    /// compile(source) for a caller that already holds the parse of
    /// `source` (DESIGN.md §22): where compile(source) would parse, this
    /// type-checks `parsed` instead, whether caching is on or off or the
    /// source collides with another's fingerprint; on a cache hit `parsed`
    /// is dropped. The corpus forge hands over the program it printed.
    ///
    /// Precondition: `parsed` equals try_parse(source) in nodes, ids,
    /// spans, names, literal values and declared types, and has not been
    /// type-checked. Nothing checks it: a program that differs is cached
    /// and run as if it were the parse of `source`.
    [[nodiscard]] std::shared_ptr<const CompiledProgram> compile(
        const std::string& source, lang::Program parsed,
        VerifyOutcome* outcome = nullptr) const;

    [[nodiscard]] const miri::InterpLimits& limits() const { return limits_; }
    [[nodiscard]] const std::shared_ptr<VerifyCache>& cache() const {
        return cache_;
    }
    [[nodiscard]] VerifyCacheStats stats() const { return cache_->stats(); }
    [[nodiscard]] ScreenStats screen_stats() const;
    /// One-line human-readable stats (the summary examples print).
    [[nodiscard]] std::string stats_summary() const;
    /// One-line screening stats, same audience as stats_summary().
    [[nodiscard]] std::string screen_summary() const;

    /// The process-wide Oracle (default limits, process-wide cache) used by
    /// every call site that isn't wired to an explicit one.
    static const Oracle& shared_default();

  protected:
    /// The uncached unit of work: run the tier's interpreter once per input
    /// vector. Virtual so tests can count real interpretations through a
    /// counting double, or force the VM on every run.
    [[nodiscard]] virtual miri::MiriReport interpret(
        const CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets) const;

  private:
    /// The front end for `source`: type-checks `parsed` when given,
    /// parses `source` first when not.
    [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_uncached(
        const std::string& source, std::uint64_t fingerprint,
        std::optional<lang::Program> parsed) const;
    /// compile() plus whether the returned program is the cache-canonical
    /// entry for its fingerprint. Only canonical programs may key the
    /// report cache — a hash-colliding source compiles fresh each time and
    /// skips report memoization entirely, staying correct (just uncached).
    [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_guarded(
        const std::string& source, std::optional<lang::Program> parsed,
        VerifyOutcome* outcome, bool* canonical) const;

    miri::InterpLimits limits_;
    std::shared_ptr<VerifyCache> cache_;
    bool caching_ = true;
    InterpTier interp_ = InterpTier::Vm;
    mutable std::atomic<std::uint64_t> screens_{0};
    mutable std::atomic<std::uint64_t> screen_proven_{0};
    mutable std::atomic<std::uint64_t> screen_likely_{0};
    mutable std::atomic<std::uint64_t> screen_unknown_{0};
    mutable std::atomic<std::uint64_t> screen_ops_{0};
};

/// `oracle`, or the process-wide default when null — the fallback every
/// consumer of an optional oracle pointer shares.
[[nodiscard]] inline const Oracle& resolve(const Oracle* oracle) {
    return oracle != nullptr ? *oracle : Oracle::shared_default();
}

}  // namespace rustbrain::verify
