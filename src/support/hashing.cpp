#include "support/hashing.hpp"

#include <cstring>

namespace rustbrain::support {

std::uint64_t fnv1a64_u64(std::uint64_t value, std::uint64_t seed) {
    std::uint64_t h = seed;
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xFFU;
        h *= kFnvPrime;
    }
    return h;
}

namespace {

constexpr std::uint64_t kMixA = 0xE7037ED1A0B428DBULL;
constexpr std::uint64_t kMixB = 0x8EBC6AF09C88C6E3ULL;

/// Folds the 128-bit product of `a` and `b` into 64 bits.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
    return static_cast<std::uint64_t>(product) ^
           static_cast<std::uint64_t>(product >> 64);
}

std::uint64_t load64(const unsigned char* p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t load32(const unsigned char* p) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

}  // namespace

std::uint64_t key_hash(std::string_view text, std::uint64_t seed) {
    const auto* p = reinterpret_cast<const unsigned char*>(text.data());
    std::size_t n = text.size();
    std::uint64_t h = mix(seed ^ kMixA, n ^ kMixB);
    while (n > 16) {
        h = mix(load64(p) ^ kMixA, load64(p + 8) ^ h);
        p += 16;
        n -= 16;
    }
    // The last 1..16 bytes, as two (possibly overlapping) words.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (n >= 8) {
        a = load64(p);
        b = load64(p + n - 8);
    } else if (n >= 4) {
        a = load32(p);
        b = load32(p + n - 4);
    } else if (n > 0) {
        a = (std::uint64_t{p[0]} << 16) | (std::uint64_t{p[n / 2]} << 8) |
            p[n - 1];
    }
    return mix(a ^ kMixA ^ h, b ^ kMixB ^ h);
}

}  // namespace rustbrain::support
