// SimLLM — deterministic simulated chat-completion engine, the first
// llm::LlmBackend implementation.
//
// Serves four prompt tasks (see PromptSpec): extract_features,
// generate_solutions, apply_rule, extract_ast. The engine sees ONLY the
// rendered prompt text (it re-parses the code from the prompt) plus its
// model profile, mirroring a real API boundary; it never touches the
// dataset's reference fixes.
//
// Every call is a pure function of (profile, session seed,
// request.sequence, prompt text, temperature): the RNG stream is derived
// fresh per call from exactly those inputs, never carried across calls.
// That is the LlmBackend determinism contract — it makes prompt-keyed
// caching and transcript replay bit-identical to live runs, while a retry
// of the same prompt at the next sequence number still samples a fresh
// stream.
// The one thing a session keeps between calls is the parse of the last
// code it saw (a session's calls quote the same code over and over); the
// parse is a function of the code alone, so the memo changes no response
// (DESIGN.md §14).
//
// Model quality is expressed mechanistically:
//  * competence (profile x category x prompt context) decides whether the
//    model's candidate rules are relevant or distractors;
//  * temperature shapes sampling: low temperature collapses onto the top
//    candidate (diversity loss, Fig 11's left flank), high temperature
//    raises both diversity and hallucination (right flank);
//  * hallucination corrupts applied patches via mutate_program, sometimes
//    *increasing* the error count — the rollback agent's reason to exist.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "lang/ast.hpp"
#include "llm/backend.hpp"
#include "llm/chat.hpp"
#include "llm/profile.hpp"
#include "support/rng.hpp"

namespace rustbrain::llm {

class SimLLM final : public LlmBackend {
  public:
    SimLLM(const ModelProfile& profile, std::uint64_t seed);

    /// Serve one chat request. Never throws for malformed prompts — it
    /// answers like a confused model instead.
    ChatResponse complete(const ChatRequest& request) override;

    [[nodiscard]] const ModelProfile& profile() const { return profile_; }
    [[nodiscard]] std::uint64_t calls_served() const override { return calls_; }
    [[nodiscard]] std::string description() const override {
        return "sim:" + profile_.name;
    }

  private:
    std::string handle_extract_features(const PromptSpec& spec);
    std::string handle_generate_solutions(const PromptSpec& spec,
                                          double temperature, support::Rng& rng);
    std::string handle_apply_rule(const PromptSpec& spec, double temperature,
                                  support::Rng& rng);
    std::string handle_extract_ast(const PromptSpec& spec, double temperature,
                                   support::Rng& rng);

    /// The parse of `code`, or null when it does not parse. Memoized for
    /// the last code seen; callers must not mutate the program (clone it).
    const lang::Program* parsed(const std::string& code);

    ModelProfile profile_;
    std::uint64_t session_base_;  // derive_seed(seed, profile.name)
    std::uint64_t calls_ = 0;
    std::optional<std::string> memo_code_;
    std::optional<lang::Program> memo_program_;  // parse of *memo_code_
};

/// Parse helpers for the pipeline side (the "prompt engineering" that turns
/// model text back into data).
std::vector<std::string> parse_solution_lines(const std::string& response);
/// The code block from an apply_rule / extract_ast response (everything
/// after the "code:" line, or the whole text when no marker is present).
std::string parse_code_block(const std::string& response);

}  // namespace rustbrain::llm
