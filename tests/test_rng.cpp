/// \file test_rng.cpp
/// \brief Unit + statistical tests for the deterministic RNG streams.

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using mcps::sim::RngStream;
using mcps::sim::RunningStats;

TEST(Rng, SameSeedSameSequence) {
    RngStream a{123}, b{123};
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    RngStream a{123}, b{124};
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, NamedStreamsAreIndependentAndStable) {
    RngStream a1{42, "alpha"}, a2{42, "alpha"};
    RngStream b{42, "beta"};
    EXPECT_EQ(a1.next(), a2.next());
    // alpha and beta streams from the same master differ.
    RngStream a3{42, "alpha"};
    int equal = 0;
    for (int i = 0; i < 200; ++i) {
        if (a3.next() == b.next()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
    RngStream r{7};
    RunningStats st;
    for (int i = 0; i < 20000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        st.add(u);
    }
    EXPECT_NEAR(st.mean(), 0.5, 0.01);
    EXPECT_NEAR(st.stddev(), 0.2887, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    RngStream r{7};
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRangeUniformly) {
    RngStream r{11};
    std::array<int, 6> counts{};
    for (int i = 0; i < 60000; ++i) {
        const auto v = r.uniform_int(10, 15);
        ASSERT_GE(v, 10);
        ASSERT_LE(v, 15);
        ++counts[static_cast<std::size_t>(v - 10)];
    }
    for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, UniformIntSingleton) {
    RngStream r{11};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(4, 4), 4);
}

TEST(Rng, BernoulliMatchesProbability) {
    RngStream r{13};
    int hits = 0;
    for (int i = 0; i < 50000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
}

TEST(Rng, NormalMoments) {
    RngStream r{17};
    RunningStats st;
    for (int i = 0; i < 50000; ++i) st.add(r.normal(10.0, 2.0));
    EXPECT_NEAR(st.mean(), 10.0, 0.05);
    EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(Rng, NormalTruncatedStaysInBounds) {
    RngStream r{19};
    for (int i = 0; i < 5000; ++i) {
        const double v = r.normal_truncated(0.0, 1.0, -0.5, 0.5);
        ASSERT_GE(v, -0.5);
        ASSERT_LE(v, 0.5);
    }
    // Pathological bounds: falls back to clamp of the mean.
    EXPECT_DOUBLE_EQ(r.normal_truncated(0.0, 1e-12, 100.0, 200.0), 100.0);
}

TEST(Rng, ExponentialMean) {
    RngStream r{23};
    RunningStats st;
    for (int i = 0; i < 50000; ++i) {
        const double v = r.exponential(4.0);
        ASSERT_GE(v, 0.0);
        st.add(v);
    }
    EXPECT_NEAR(st.mean(), 4.0, 0.1);
}

TEST(Rng, LognormalMedian) {
    RngStream r{29};
    std::vector<double> xs;
    for (int i = 0; i < 20001; ++i) xs.push_back(r.lognormal(std::log(3.0), 0.5));
    std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
    EXPECT_NEAR(xs[10000], 3.0, 0.15);
}

TEST(Rng, PickCoversAllIndices) {
    RngStream r{31};
    std::set<std::size_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto idx = r.pick(7);
        ASSERT_LT(idx, 7u);
        seen.insert(idx);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GoldenNamedStreamOutputs) {
    // Pinned first-8 outputs of three load-bearing named streams at master
    // seed 42. Repro files store only (seed, index, fault plan), so replay
    // correctness depends on these sequences never changing — any edit to
    // fnv1a64, splitmix64, the name-mixing recipe, or xoshiro256** itself
    // must fail here before it silently invalidates every saved repro.
    struct Golden {
        const char* name;
        std::array<std::uint64_t, 8> expect;
    };
    const Golden goldens[] = {
        {"pulse_ox.noise",
         {8042518850680043089ULL, 12764411259325908868ULL,
          16935458375409564944ULL, 10698249278326238841ULL,
          5556389389599706592ULL, 4820580469644862056ULL,
          8344410375188828766ULL, 2677695248741123308ULL}},
        {"bus.channel.pca_interlock",
         {2674068870250153596ULL, 18202182861198879209ULL,
          7788602141849266167ULL, 13878506630138028683ULL,
          8667519860386545056ULL, 4270383487487131621ULL,
          16609378373268768168ULL, 11357180842951850523ULL}},
        {"fuzz/pca/0",
         {15208323256328592790ULL, 335675618186822804ULL,
          2826810545848909527ULL, 8414392422944684294ULL,
          2879191728336563177ULL, 8178251373362621357ULL,
          18358594369995035529ULL, 15612759425190725019ULL}},
    };
    for (const auto& g : goldens) {
        RngStream r{42, g.name};
        for (std::size_t i = 0; i < g.expect.size(); ++i) {
            EXPECT_EQ(r.next(), g.expect[i])
                << "stream '" << g.name << "' output " << i;
        }
    }
}

TEST(Rng, Fnv1aStable) {
    // Regression guard: the hash feeds stream derivation, so its values
    // must never change across refactors.
    EXPECT_EQ(mcps::sim::fnv1a64(""), 14695981039346656037ULL);
    EXPECT_EQ(mcps::sim::fnv1a64("a"), 12638187200555641996ULL);
}

TEST(Rng, Fnv1aContinues) {
    using mcps::sim::fnv1a64;
    EXPECT_EQ(fnv1a64("b", fnv1a64("a")), fnv1a64("ab"));
    EXPECT_EQ(fnv1a64("", fnv1a64("abc")), fnv1a64("abc"));
    EXPECT_EQ(fnv1a64("a", mcps::sim::kFnvOffset), fnv1a64("a"));
}

}  // namespace
