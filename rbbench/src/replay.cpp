#include "replay.hpp"

#include <optional>
#include <string>
#include <unordered_set>

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"
#include "screen/screen.hpp"
#include "vm/bytecode.hpp"
#include "vm/peephole.hpp"
#include "vm/vm.hpp"

namespace rbbench {

namespace {

/// A tier's answer for one input run, reduced to what must agree.
std::string run_signature(const miri::RunResult& result) {
    std::string out = std::to_string(result.steps);
    if (result.finding) out += "|" + result.finding->key();
    for (const std::string& line : result.output) out += "|" + line;
    return out;
}

ReplayTimes replay_once(const std::vector<CapturedProgram>& programs) {
    namespace lang = rustbrain::lang;
    namespace screen = rustbrain::screen;
    namespace vm = rustbrain::vm;
    const miri::InterpLimits limits;  // the Oracle's defaults
    ReplayTimes t;
    for (const CapturedProgram& captured : programs) {
        auto start = Clock::now();
        std::optional<lang::Program> program =
            lang::try_parse(captured.source);
        t.parse_ms += ms_since(start);
        if (!program) {
            ++t.mismatches;  // the Oracle interpreted it, so it must parse
            continue;
        }
        start = Clock::now();
        const bool typed = lang::type_check(*program);
        t.typecheck_ms += ms_since(start);
        if (!typed) {
            ++t.mismatches;
            continue;
        }
        start = Clock::now();
        const miri::LoweredProgram lowering = miri::lower_program(*program);
        t.lower_ms += ms_since(start);
        start = Clock::now();
        const vm::VmProgram code = vm::compile(*program, lowering);
        t.compile_ms += ms_since(start);
        start = Clock::now();
        const vm::VmProgram optimized = vm::optimize(code);
        t.optimize_ms += ms_since(start);
        start = Clock::now();
        (void)screen::screen_program(*program, lowering, captured.inputs,
                                     limits);
        t.screen_ms += ms_since(start);

        const std::vector<std::vector<std::int64_t>> runs =
            captured.inputs.empty()
                ? std::vector<std::vector<std::int64_t>>{{}}
                : captured.inputs;
        std::vector<std::string> reference;
        start = Clock::now();
        for (const auto& inputs : runs) {
            miri::Interpreter interp(*program, inputs, limits);
            reference.push_back(run_signature(interp.run()));
        }
        t.tree_ms += ms_since(start);

        std::vector<std::string> slot;
        start = Clock::now();
        for (const auto& inputs : runs) {
            miri::Interpreter interp(*program, inputs, limits, &lowering);
            slot.push_back(run_signature(interp.run()));
        }
        t.slot_ms += ms_since(start);

        std::vector<std::string> plain;
        start = Clock::now();
        for (const auto& inputs : runs) {
            vm::Vm machine(*program, code, inputs, limits);
            plain.push_back(run_signature(machine.run()));
        }
        t.vm_ms += ms_since(start);

        std::vector<std::string> fused;
        start = Clock::now();
        for (const auto& inputs : runs) {
            vm::Vm machine(*program, optimized, inputs, limits);
            fused.push_back(run_signature(machine.run()));
        }
        t.vm_opt_ms += ms_since(start);

        if (slot != reference || plain != reference || fused != reference) {
            ++t.mismatches;
        }
        ++t.programs;
    }
    return t;
}

}  // namespace

std::vector<CapturedProgram> captured_programs() {
    std::vector<CapturedProgram> out;
    std::unordered_set<std::string> seen;
    for (const SpanRecorder* recorder : Tracer::global().recorders()) {
        for (const CapturedProgram& program : recorder->captured()) {
            std::string key = std::to_string(program.fingerprint) + "#" +
                              std::to_string(program.inputs.size());
            for (const auto& run : program.inputs) {
                key += ";";
                for (std::int64_t value : run) key += std::to_string(value) + ",";
            }
            if (seen.insert(key).second) out.push_back(program);
        }
    }
    return out;
}

ReplayTimes replay_layers(const std::vector<CapturedProgram>& programs,
                          int rounds) {
    std::vector<ReplayTimes> all;
    if (rounds < 1) rounds = 1;
    for (int i = 0; i < rounds; ++i) all.push_back(replay_once(programs));
    ReplayTimes out = all.front();
    auto pick = [&](double ReplayTimes::*field) {
        std::vector<double> values;
        for (const ReplayTimes& r : all) values.push_back(r.*field);
        out.*field = median(values);
    };
    pick(&ReplayTimes::parse_ms);
    pick(&ReplayTimes::typecheck_ms);
    pick(&ReplayTimes::lower_ms);
    pick(&ReplayTimes::compile_ms);
    pick(&ReplayTimes::optimize_ms);
    pick(&ReplayTimes::screen_ms);
    pick(&ReplayTimes::tree_ms);
    pick(&ReplayTimes::slot_ms);
    pick(&ReplayTimes::vm_ms);
    pick(&ReplayTimes::vm_opt_ms);
    std::unordered_set<std::uint64_t> sources;
    for (const CapturedProgram& program : programs) {
        sources.insert(program.fingerprint);
    }
    out.sources = sources.size();
    return out;
}

}  // namespace rbbench
