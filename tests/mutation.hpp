// Seeded mutation of valid inputs, shared by the tests that guard the
// untrusted-bytes boundaries: wire frames (serve_wire_test), corpus files
// (gen_corpus_io_test) and program text (lang_parser_test). Each test
// mutates known-good seeds a fixed number of times with support::Rng, so a
// failure reproduces from the iteration number alone, and checks that the
// boundary either accepts the bytes or rejects them the documented way.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "support/rng.hpp"

namespace rustbrain::mutation {

/// Numbers that stress length and count fields: negative, zero, 2^32,
/// 2^63, 2^64 - 1 and 2^64 (one past what a 64-bit parse can hold).
inline const char* const kHostileNumbers[] = {
    "-1",
    "0",
    "4294967296",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616"};

/// Apply one to three mutations to `text`: a byte flip, a deletion, a
/// truncation, a substring spliced in from one of `donors`, or a digit run
/// replaced by one of kHostileNumbers.
inline std::string mutate(std::string text,
                          const std::vector<std::string>& donors,
                          support::Rng& rng) {
    const auto below = [&](std::size_t bound) {
        return static_cast<std::size_t>(rng.next_below(bound));
    };
    const std::size_t rounds = 1 + below(3);
    for (std::size_t round = 0; round < rounds; ++round) {
        switch (below(5)) {
            case 0:  // byte flip
                if (!text.empty()) {
                    text[below(text.size())] ^=
                        static_cast<char>(1 + below(255));
                }
                break;
            case 1:  // deletion of up to 16 bytes
                if (!text.empty()) {
                    const std::size_t at = below(text.size());
                    text.erase(at, 1 + below(16));
                }
                break;
            case 2:  // truncation
                text.resize(below(text.size() + 1));
                break;
            case 3: {  // splice up to 64 bytes of a donor
                const std::string& donor = donors[below(donors.size())];
                const std::size_t from = below(donor.size() + 1);
                text.insert(below(text.size() + 1),
                            donor.substr(from, 1 + below(64)));
                break;
            }
            default: {  // digit run -> hostile number
                const auto digit = [&](std::size_t i) {
                    return i < text.size() && text[i] >= '0' && text[i] <= '9';
                };
                std::vector<std::size_t> runs;
                for (std::size_t i = 0; i < text.size(); ++i) {
                    if (digit(i) && (i == 0 || !digit(i - 1))) runs.push_back(i);
                }
                if (runs.empty()) break;
                const std::size_t begin = runs[below(runs.size())];
                std::size_t end = begin;
                while (digit(end)) ++end;
                text.replace(begin, end - begin,
                             kHostileNumbers[below(std::size(kHostileNumbers))]);
                break;
            }
        }
    }
    return text;
}

/// Success when `parse` returns or throws std::runtime_error /
/// std::invalid_argument; failure naming the exception otherwise.
template <typename Parse>
::testing::AssertionResult parses_or_rejects(Parse&& parse) {
    try {
        parse();
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& error) {
        return ::testing::AssertionFailure()
               << typeid(error).name() << ": " << error.what();
    }
    return ::testing::AssertionSuccess();
}

}  // namespace rustbrain::mutation
