// rbbench — the repository benchmark program.
//
//   rbbench --workload <sweep-cold|sweep-warm|serve-open-loop|forge>
//           --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Progress goes to stderr; the last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics (end-to-end metrics when
// --trace 0, per-layer metrics when --trace 1). Exit code 0 means the run
// completed; `correct` says whether every output matched its reference.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

bool parse_u64(const char* text, std::uint64_t& out) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') return false;
    out = value;
    return true;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <sweep-cold|sweep-warm|"
                 "serve-open-loop|forge> --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    rbbench::RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(argv[0]);
        const char* value = argv[++i];
        std::uint64_t number = 0;
        if (arg == "--workload") {
            config.workload = value;
        } else if (arg == "--seed" && parse_u64(value, number)) {
            config.seed = number;
        } else if (arg == "--seconds" && parse_u64(value, number) && number > 0) {
            config.seconds = static_cast<double>(number);
        } else if (arg == "--trace" && parse_u64(value, number) && number <= 1) {
            config.trace = number == 1;
        } else if (arg == "--spans") {
            config.span_path = value;
        } else {
            return usage(argv[0]);
        }
    }

    rbbench::RunOutcome outcome;
    try {
        if (config.workload == "sweep-cold") {
            outcome = rbbench::run_sweep(config, false);
        } else if (config.workload == "sweep-warm") {
            outcome = rbbench::run_sweep(config, true);
        } else if (config.workload == "serve-open-loop") {
            outcome = rbbench::run_serve(config);
        } else if (config.workload == "forge") {
            outcome = rbbench::run_forge(config);
        } else {
            return usage(argv[0]);
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "rbbench: %s\n", error.what());
        return 1;
    }
    const bool correct = outcome.failed == 0 && outcome.attempted > 0;
    std::printf("%s\n", outcome.metrics
                            .json(correct, outcome.attempted, outcome.failed)
                            .c_str());
    return 0;
}
