#include "support/diagnostics.hpp"

namespace rustbrain::support {

std::string Diagnostic::to_string() const {
    std::string out = "error";
    if (span.valid()) {
        out += " at ";
        out += span.to_string();
    }
    out += ": ";
    out += message;
    return out;
}

void DiagnosticEngine::error(std::string message, SourceSpan span) {
    diagnostics_.push_back({std::move(message), span});
}

std::string DiagnosticEngine::summary() const {
    std::string out;
    for (const auto& diagnostic : diagnostics_) {
        out += diagnostic.to_string();
        out += '\n';
    }
    return out;
}

std::string cap_summary(std::string summary) {
    constexpr std::size_t limit = DiagnosticEngine::kCompileErrorLimit;
    std::size_t lines = 0;
    std::size_t cut = std::string::npos;
    for (std::size_t at = summary.find('\n'); at != std::string::npos;
         at = summary.find('\n', at + 1)) {
        if (++lines == limit) cut = at + 1;
    }
    if (lines <= limit) return summary;
    summary.resize(cut);
    summary += "... and " + std::to_string(lines - limit) + " more\n";
    return summary;
}

}  // namespace rustbrain::support
