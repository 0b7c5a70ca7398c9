// LlmBackend — the abstract chat-completion boundary.
//
// Engines never construct a model themselves: they receive a
// BackendFactory and open one backend *session* per repaired case
// (seeded with derive_seed(config.seed, case tag), exactly like the old
// embedded SimLLM). SimLLM is the first implementation; the decorator
// CachingBackend wraps any inner backend.
//
// Contract required by the decorator: a backend session's response must
// be a pure function of (session identity, request.sequence, messages,
// temperature). SimLLM guarantees this by deriving a fresh RNG stream per
// call from exactly those inputs, which is what makes prompt-keyed
// memoization, and a replay from a filled cache with no model behind it,
// bit-identical to live runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "llm/chat.hpp"
#include "llm/profile.hpp"

namespace rustbrain::llm {

class LlmBackend {
  public:
    virtual ~LlmBackend() = default;

    /// Serve one chat request. Never throws for malformed prompts — it
    /// answers like a confused model instead.
    virtual ChatResponse complete(const ChatRequest& request) = 0;

    /// Requests this session has served (for decorators: including the
    /// ones answered without reaching the wrapped backend).
    [[nodiscard]] virtual std::uint64_t calls_served() const = 0;

    /// Human-readable identity, e.g. "sim:gpt-4" or "cache(sim:gpt-4)".
    [[nodiscard]] virtual std::string description() const = 0;
};

/// Opens one backend session for a repair: engines call this once per case
/// with the model profile and the case-derived session seed.
using BackendFactory = std::function<std::unique_ptr<LlmBackend>(
    const ModelProfile& profile, std::uint64_t session_seed)>;

/// The default factory: a fresh SimLLM per session.
BackendFactory sim_backend_factory();

/// Stable 64-bit identity of one call: (session tag, session seed,
/// request.sequence, temperature bits, message contents). CachingBackend's
/// key; nothing re-checks it on a hit (DESIGN.md §14).
std::uint64_t call_key(std::string_view session_tag, std::uint64_t session_seed,
                       const ChatRequest& request);

}  // namespace rustbrain::llm
