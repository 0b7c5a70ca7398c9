#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/wire.hpp"

namespace rbbench {

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(lower);
    // No interpolation at an exact rank or between equal neighbours, so
    // infinite samples (missed requests) never turn into NaN.
    if (fraction == 0.0 || values[upper] == values[lower]) return values[lower];
    return values[lower] + fraction * (values[upper] - values[lower]);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes) {
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t result_fingerprint(const core::CaseResult& result) {
    core::CaseResult copy = result;
    copy.screens = 0;
    copy.screen_proven_safe = 0;
    copy.screen_likely_ub = 0;
    copy.screen_unknown = 0;
    return fnv1a(kFnvOffset, rustbrain::serve::render_case_result(copy));
}

void MetricSheet::set(const std::string& name, double value,
                      const std::string& unit) {
    for (std::size_t i = 0; i < units_.size(); ++i) {
        if (units_[i].first == name) {
            units_[i].second = unit;
            values_[i] = value;
            return;
        }
    }
    units_.emplace_back(name, unit);
    values_.push_back(value);
}

std::string MetricSheet::json(bool correct, std::uint64_t attempted,
                              std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char number[64];
    for (std::size_t i = 0; i < units_.size(); ++i) {
        const double value = std::isfinite(values_[i]) ? values_[i] : 0.0;
        std::snprintf(number, sizeof number, "%.17g", value);
        if (i > 0) out += ", ";
        out += "\"" + units_[i].first + "\": {\"value\": " + number +
               ", \"unit\": \"" + units_[i].second + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace rbbench
