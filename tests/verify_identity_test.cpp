// The identity matrix's forge column: Corpus Forge at seed 7 must write
// the same 160-case corpus file under the reference and under every row
// of the table in identity_matrix.hpp. The engine-sweep columns live with
// the tests that own each knob (see the table there).
#include <gtest/gtest.h>

#include <string>

#include "gen/corpus_io.hpp"
#include "identity_matrix.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::verify::identity {
namespace {

TEST(VerifyIdentityTest, EveryOracleConfigurationMatchesTheReference) {
    // The forge's rejection sampler verifies every candidate, so any row
    // that changed a verdict would change which candidates are accepted.
    auto forged = [](const Row& row) {
        return gen::corpus_to_string(
            forge(7, 160, *make_oracle(row, options_for(row))));
    };
    const std::string want = forged(kReference);
    ASSERT_FALSE(want.empty());
    for (const Row& row : kRows) {
        EXPECT_EQ(want, forged(row)) << label(row);
    }
}

}  // namespace
}  // namespace rustbrain::verify::identity
