// Hashing utilities. Two families, chosen by where the value ends up:
//
//  * fnv1a64 (FNV-1a, byte at a time) for every value that reaches a
//    result: seed derivation (derive_seed, SimLLM's prompt seed), AST
//    feature hashing (vectorize), the corpus fingerprint and test goldens.
//    std::hash is not stable across implementations, and changing one of
//    these values changes experiment output, so they stay FNV-1a.
//  * key_hash (multiply-mix, 16 bytes per step) for keys that only
//    identify a cache entry: the VerifyCache fingerprint and collision
//    check, and llm::call_key. Its value assumes a little-endian load and
//    is not a stable format. A VerifyCache hit re-checks the full key, so
//    there only speed and spread matter. A PromptCache hit checks nothing:
//    two calls whose call_keys collide share one response, which then
//    reaches a result.
//
// DESIGN.md §14 gives the rule and where each one is used.
#pragma once

#include <cstdint>
#include <string_view>

namespace rustbrain::support {

constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

constexpr std::uint64_t fnv1a64(std::string_view text,
                                std::uint64_t seed = kFnvOffsetBasis) {
    std::uint64_t h = seed;
    for (char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= kFnvPrime;
    }
    return h;
}

constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
    // 64-bit variant of boost::hash_combine's mixing constant.
    return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 12) + (a >> 4));
}

std::uint64_t fnv1a64_u64(std::uint64_t value, std::uint64_t seed = kFnvOffsetBasis);

constexpr std::uint64_t kKeyHashSeed = 0xA0761D6478BD642FULL;

/// Fast hash of `text` for cache keys only (see the header comment): two
/// 64-bit words per step, folded by a 64x64->128-bit multiply.
std::uint64_t key_hash(std::string_view text, std::uint64_t seed = kKeyHashSeed);

}  // namespace rustbrain::support
