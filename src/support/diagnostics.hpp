// Diagnostic accumulation shared by the lexer, parser, type checker and
// MiriLite. Diagnostics are values, not exceptions: UB findings are the
// *output* of the toolchain, not failures of it. Every diagnostic is an
// error.
#pragma once

#include <string>
#include <vector>

#include "support/source_span.hpp"

namespace rustbrain::support {

struct Diagnostic {
    std::string message;
    SourceSpan span;

    [[nodiscard]] std::string to_string() const;
};

/// Ordered collection of diagnostics.
class DiagnosticEngine {
  public:
    void error(std::string message, SourceSpan span = {});

    [[nodiscard]] bool has_errors() const { return !diagnostics_.empty(); }
    [[nodiscard]] std::size_t error_count() const { return diagnostics_.size(); }
    [[nodiscard]] const std::vector<Diagnostic>& all() const { return diagnostics_; }
    [[nodiscard]] std::string summary() const;

    /// A compile error keeps this many diagnostics (see cap_summary).
    static constexpr std::size_t kCompileErrorLimit = 64;

  private:
    std::vector<Diagnostic> diagnostics_;
};

/// `summary` (one diagnostic per line, as summary() writes it) cut to its
/// first kCompileErrorLimit lines, then one "... and N more" line for the
/// rest; unchanged when it has no more lines than that. What a compile
/// error carries goes through this, so no source can grow it without
/// bound.
std::string cap_summary(std::string summary);

}  // namespace rustbrain::support
