// support::ZipfSampler — the deterministic traffic shape of rbbench's
// serve-open-loop workload: same seed + skew => same trace, skew 0 is
// uniform, and higher skew concentrates mass on the low ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"
#include "support/zipf.hpp"

namespace rustbrain::support {
namespace {

TEST(ZipfSamplerTest, SameSeedSameTrace) {
    ZipfSampler sampler(50, 1.2);
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(sampler.sample(a), sampler.sample(b));
    }
}

TEST(ZipfSamplerTest, SamplesStayInRange) {
    ZipfSampler sampler(5, 2.0);
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(sampler.sample(rng), 5u);
    }
}

TEST(ZipfSamplerTest, SkewZeroIsUniform) {
    const ZipfSampler sampler(8, 0.0);
    for (std::size_t rank = 0; rank < 8; ++rank) {
        EXPECT_NEAR(sampler.probability(rank), 1.0 / 8.0, 1e-12);
    }
}

TEST(ZipfSamplerTest, ProbabilityDecreasesWithRankAndConcentratesWithSkew) {
    const ZipfSampler mild(20, 0.5);
    const ZipfSampler steep(20, 2.0);
    for (std::size_t rank = 1; rank < 20; ++rank) {
        EXPECT_GE(mild.probability(rank - 1), mild.probability(rank));
        EXPECT_GE(steep.probability(rank - 1), steep.probability(rank));
    }
    // More skew => more mass on the head.
    EXPECT_GT(steep.probability(0), mild.probability(0));
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesTrackProbabilities) {
    const ZipfSampler sampler(10, 1.0);
    Rng rng(42);
    std::map<std::size_t, int> counts;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) ++counts[sampler.sample(rng)];
    for (std::size_t rank = 0; rank < 10; ++rank) {
        const double expected = sampler.probability(rank) * draws;
        EXPECT_NEAR(counts[rank], expected, 0.15 * draws)
            << "rank " << rank;
    }
    // Rank 0 is sampled strictly more often than the tail.
    EXPECT_GT(counts[0], counts[9]);
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
    const ZipfSampler sampler(33, 1.7);
    double total = 0.0;
    for (std::size_t rank = 0; rank < sampler.size(); ++rank) {
        total += sampler.probability(rank);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, RejectsDegenerateParameters) {
    EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
    EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
    EXPECT_THROW(ZipfSampler(10, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(ZipfSampler(10, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

}  // namespace
}  // namespace rustbrain::support
