#include "llm/caching_backend.hpp"

#include <utility>

namespace rustbrain::llm {

PromptCache::PromptCache(std::size_t capacity_per_shard)
    : entries_(capacity_per_shard) {}

std::optional<ChatResponse> PromptCache::lookup(std::uint64_t key) {
    // Nothing to check the entry against: see DESIGN.md §14 on collisions.
    return entries_.lookup(
        key, [](const ChatResponse&) { return true; },
        [](const ChatResponse& response) { return response; });
}

void PromptCache::insert(std::uint64_t key, const ChatResponse& response) {
    // A taken key keeps its response: a racing thread's identical one, or
    // a colliding call's (DESIGN.md §14).
    entries_.insert(key, response);
}

PromptCacheStats PromptCache::stats() const {
    const support::ShardedLruStats stats = entries_.stats();
    return PromptCacheStats{stats.hits, stats.misses, stats.entries,
                            stats.evictions};
}

CachingBackend::CachingBackend(std::shared_ptr<PromptCache> cache,
                               std::unique_ptr<LlmBackend> inner,
                               std::string session_tag,
                               std::uint64_t session_seed)
    : cache_(std::move(cache)),
      inner_(std::move(inner)),
      session_tag_(std::move(session_tag)),
      session_seed_(session_seed) {}

ChatResponse CachingBackend::complete(const ChatRequest& request) {
    ++calls_;
    const std::uint64_t key = call_key(session_tag_, session_seed_, request);
    if (auto cached = cache_->lookup(key)) {
        return std::move(*cached);
    }
    const ChatResponse response = inner_->complete(request);
    cache_->insert(key, response);
    return response;
}

std::string CachingBackend::description() const {
    return "cache(" + inner_->description() + ")";
}

BackendFactory caching_backend_factory(std::shared_ptr<PromptCache> cache,
                                       BackendFactory inner) {
    if (!inner) inner = sim_backend_factory();
    return [cache, inner](const ModelProfile& profile,
                          std::uint64_t session_seed) {
        return std::make_unique<CachingBackend>(cache,
                                                inner(profile, session_seed),
                                                profile.name, session_seed);
    };
}

}  // namespace rustbrain::llm
