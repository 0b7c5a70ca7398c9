// UB findings — the currency of the whole reproduction.
//
// Categories follow the paper's evaluation axes (Figs 8/9/10/12, Table I),
// which themselves mirror the Miri test-suite directory names: alloc,
// dangling pointer, panic, provenance, uninit, both-borrow, data race,
// func.call, func.pointer, stack borrow, validity, unaligned, concurrency,
// tail call. CompileError is an extra bucket for repair iterations that
// produce code rejected by the type checker (RustAssistant's original
// problem domain).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/source_span.hpp"

namespace rustbrain::miri {

enum class UbCategory {
    Alloc,
    DanglingPointer,
    Panic,
    Provenance,
    Uninit,
    BothBorrow,
    DataRace,
    FuncCall,
    FuncPointer,
    StackBorrow,
    Validity,
    Unaligned,
    Concurrency,
    TailCall,
    CompileError,
};

constexpr std::size_t kUbCategoryCount = 15;

const char* ub_category_name(UbCategory category);
/// Paper-style label, e.g. "danglingpointer", "func.call".
const char* ub_category_label(UbCategory category);
/// All categories in a stable order (paper figure order).
const std::vector<UbCategory>& all_ub_categories();

struct Finding {
    UbCategory category = UbCategory::Panic;
    std::string message;
    support::SourceSpan span;

    [[nodiscard]] std::string to_string() const;
    /// Dedup key: category + message (spans differ across inputs).
    [[nodiscard]] std::string key() const;
};

/// A run's first fault: how UB and panics end a MiriLite run without C++
/// unwinding (DESIGN.md §19).
///
/// The machine core (miri/memory.*, miri/machine.*, miri/scalar.hpp)
/// reports a failed check by raising it here and returning a neutral value
/// of the result's static type (miri::neutral_value); it never throws and
/// never touches the state the failed check guards. The record keeps the
/// first finding with the step count and output length at that moment and
/// ignores every later fault, so the RunResult built from it is the one the
/// first fault fixes, whatever a tier executes before it next looks. The
/// tiers look at statement boundaries, loop iterations and calls.
class FaultRecord {
  public:
    /// Where the run keeps its step count and printed output; both are read
    /// when the first fault is recorded. Unwatched, they read as 0.
    void watch(const std::uint64_t* steps,
               const std::vector<std::string>* output) {
        steps_ = steps;
        output_ = output;
    }

    [[nodiscard]] bool raised() const { return raised_; }

    /// Records the fault unless one is already recorded. A repeated fault
    /// costs this branch: a literal message is copied only when recorded.
    void raise(UbCategory category, const char* message,
               const support::SourceSpan& span) {
        if (!raised_) record(category, message, span);
    }
    void raise(UbCategory category, std::string message,
               const support::SourceSpan& span) {
        if (!raised_) record(category, std::move(message), span);
    }

    /// The first finding and the run's step count and output length when
    /// it was raised; meaningful only once raised().
    [[nodiscard]] const Finding& finding() const { return finding_; }
    [[nodiscard]] std::uint64_t steps() const { return steps_at_; }
    [[nodiscard]] std::size_t output_size() const { return output_at_; }

    /// The recorded finding, if any, clearing the record so the next fault
    /// is recorded again (checking one rule after another on one model).
    std::optional<Finding> take();

  private:
    [[gnu::cold]] [[gnu::noinline]] void record(
        UbCategory category, const char* message,
        const support::SourceSpan& span);
    [[gnu::cold]] [[gnu::noinline]] void record(
        UbCategory category, std::string&& message,
        const support::SourceSpan& span);

    bool raised_ = false;
    Finding finding_;
    std::uint64_t steps_at_ = 0;
    std::size_t output_at_ = 0;
    const std::uint64_t* steps_ = nullptr;
    const std::vector<std::string>* output_ = nullptr;
};

}  // namespace rustbrain::miri
