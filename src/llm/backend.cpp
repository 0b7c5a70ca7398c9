#include "llm/backend.hpp"

#include <cstring>

#include "llm/simllm.hpp"
#include "support/hashing.hpp"

namespace rustbrain::llm {

BackendFactory sim_backend_factory() {
    return [](const ModelProfile& profile, std::uint64_t session_seed) {
        return std::make_unique<SimLLM>(profile, session_seed);
    };
}

std::uint64_t call_key(std::string_view session_tag, std::uint64_t session_seed,
                       const ChatRequest& request) {
    std::uint64_t key = support::key_hash(session_tag);
    key = support::hash_combine(key, session_seed);
    key = support::hash_combine(key, request.sequence);
    std::uint64_t temperature_bits = 0;
    static_assert(sizeof(temperature_bits) == sizeof(request.temperature));
    std::memcpy(&temperature_bits, &request.temperature, sizeof(temperature_bits));
    key = support::hash_combine(key, temperature_bits);
    for (const ChatMessage& message : request.messages) {
        key = support::hash_combine(
            key, static_cast<std::uint64_t>(message.role));
        key = support::hash_combine(key, support::key_hash(message.content));
    }
    return key;
}

}  // namespace rustbrain::llm
