/// \file test_patient_batch.cpp
/// \brief Batch differential wall: `physio::PatientBatch` must be
/// BIT-IDENTICAL to the scalar `physio::Patient` it batches.
///
/// The batch exists purely for throughput — it replicates the scalar
/// per-lane expression sequence exactly, so under the project's default
/// flags (no -ffast-math, no FMA contraction) every observable must
/// compare equal with `EXPECT_EQ` on raw doubles, not merely NEAR.
/// The suites below drive randomized cohorts through randomized drug
/// schedules (boluses, infusion changes, antagonist rescues) and hold
/// that line; any drift is a correctness bug in the batch, never an
/// acceptable rounding difference.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "physio/patient.hpp"
#include "physio/patient_batch.hpp"
#include "physio/population.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mcps;
using physio::Archetype;
using physio::Dose;
using physio::InfusionRate;
using physio::Patient;
using physio::PatientBatch;
using physio::PatientParameters;

/// A randomized cohort: index i is a pure function of (seed, i), the
/// same contract the hospital engine relies on.
std::vector<PatientParameters> cohort(std::uint64_t seed, std::size_t n) {
    const auto& archetypes = physio::all_archetypes();
    std::vector<PatientParameters> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(physio::sample_patient_indexed(
            archetypes[i % archetypes.size()], seed, i));
    }
    return out;
}

/// Every observable the two implementations share, compared exactly.
void expect_bit_identical(const Patient& p, const PatientBatch& b,
                          std::size_t i, const char* when) {
    EXPECT_EQ(p.spo2().as_percent(), b.spo2(i).as_percent()) << when;
    EXPECT_EQ(p.resp_rate().as_per_minute(), b.resp_rate(i).as_per_minute())
        << when;
    EXPECT_EQ(p.etco2().as_mmhg(), b.etco2(i).as_mmhg()) << when;
    EXPECT_EQ(p.heart_rate().as_bpm(), b.heart_rate(i).as_bpm()) << when;
    EXPECT_EQ(p.is_apneic(), b.is_apneic(i)) << when;
    EXPECT_EQ(p.respiratory_drive(), b.respiratory_drive(i)) << when;
    EXPECT_EQ(p.paco2_mmhg(), b.paco2_mmhg(i)) << when;
    EXPECT_EQ(p.pao2_mmhg(), b.pao2_mmhg(i)) << when;
    EXPECT_EQ(p.antagonist_level(), b.antagonist_level(i)) << when;
    EXPECT_EQ(p.infusion_rate().as_mg_per_hour(),
              b.infusion_rate(i).as_mg_per_hour())
        << when;
    EXPECT_EQ(p.pk().effect_site().as_ng_per_ml(), b.effect_site(i).as_ng_per_ml())
        << when;
    EXPECT_EQ(p.pk().plasma().as_ng_per_ml(), b.plasma(i).as_ng_per_ml()) << when;
    EXPECT_EQ(p.pk().body_burden().as_mg(), b.body_burden(i).as_mg()) << when;
    EXPECT_EQ(p.pk().total_delivered().as_mg(), b.total_delivered(i).as_mg())
        << when;
    EXPECT_EQ(p.pk().total_eliminated().as_mg(), b.total_eliminated(i).as_mg())
        << when;
    EXPECT_EQ(p.elapsed_seconds(), b.elapsed_seconds(i)) << when;
}

// ------------------------------------------------ differential wall ----

TEST(PatientBatchDifferential, RandomCohortsAreBitIdenticalToScalar) {
    for (const std::uint64_t seed : {7ULL, 1234ULL, 999983ULL}) {
        const auto params = cohort(seed, 24);
        std::vector<Patient> scalars;
        PatientBatch batch;
        batch.reserve(params.size());
        for (const auto& p : params) {
            scalars.emplace_back(p);
            (void)batch.add(p);
        }

        // One schedule stream drives BOTH implementations: boluses,
        // infusion-rate changes and antagonist rescues land on the same
        // lanes at the same ticks with the same magnitudes.
        sim::RngStream sched{seed, "batch.diff.schedule"};
        const double dt = 1.0;
        for (int tick = 0; tick < 600; ++tick) {
            for (std::size_t i = 0; i < scalars.size(); ++i) {
                if (sched.bernoulli(0.01)) {
                    const Dose d = Dose::mg(sched.uniform(0.2, 2.0));
                    scalars[i].bolus(d);
                    batch.bolus(i, d);
                }
                if (sched.bernoulli(0.005)) {
                    const InfusionRate r =
                        InfusionRate::mg_per_hour(sched.uniform(0.0, 2.0));
                    scalars[i].set_infusion_rate(r);
                    batch.set_infusion_rate(i, r);
                }
                if (sched.bernoulli(0.002)) {
                    const double potency = sched.uniform(5.0, 20.0);
                    const double hl = sched.uniform(600.0, 2400.0);
                    scalars[i].give_antagonist(potency, hl);
                    batch.give_antagonist(i, potency, hl);
                }
            }
            batch.step_all(dt);
            for (auto& p : scalars) p.step(dt);
            if (tick % 97 == 0) {
                for (std::size_t i = 0; i < scalars.size(); ++i) {
                    expect_bit_identical(scalars[i], batch, i, "mid-run");
                }
                if (HasFailure()) return;  // don't drown the log
            }
        }
        for (std::size_t i = 0; i < scalars.size(); ++i) {
            expect_bit_identical(scalars[i], batch, i, "final");
        }
    }
}

TEST(PatientBatchDifferential, SubSecondTimestepStaysBitIdentical) {
    const auto params = cohort(11, 8);
    std::vector<Patient> scalars;
    PatientBatch batch;
    for (const auto& p : params) {
        scalars.emplace_back(p);
        (void)batch.add(p);
    }
    scalars[3].bolus(Dose::mg(1.5));
    batch.bolus(3, Dose::mg(1.5));
    for (int tick = 0; tick < 1200; ++tick) {
        batch.step_all(0.25);
        for (auto& p : scalars) p.step(0.25);
    }
    for (std::size_t i = 0; i < scalars.size(); ++i) {
        expect_bit_identical(scalars[i], batch, i, "dt=0.25");
    }
}

TEST(PatientBatchDifferential, EquilibriumInitializationMatchesScalarCtor) {
    const auto params = cohort(3, 16);
    PatientBatch batch;
    for (std::size_t i = 0; i < params.size(); ++i) {
        ASSERT_EQ(batch.add(params[i]), i);
        const Patient p{params[i]};
        expect_bit_identical(p, batch, i, "t=0");
    }
}

// ------------------------------------------------- cached factors ----
//
// The batch computes each lane's 1 - exp(-dt/tau) factors once per dt
// and pow(ec50, gamma) once per lane. These cases drive the paths where
// such a cache could go stale.

/// Scalar patients plus a batch over the same cohort, every lane on the
/// hospital default infusion so the Hill pow branch runs from tick one.
struct Twin {
    std::vector<Patient> scalars;
    PatientBatch batch;

    explicit Twin(const std::vector<PatientParameters>& params) {
        const InfusionRate rate = InfusionRate::mg_per_hour(0.5);
        for (const auto& p : params) {
            scalars.emplace_back(p);
            scalars.back().set_infusion_rate(rate);
            const std::size_t i = batch.add(p);
            batch.set_infusion_rate(i, rate);
        }
    }
    void step(double dt) {
        batch.step_all(dt);
        for (auto& p : scalars) p.step(dt);
    }
    void expect_identical(const char* when) const {
        for (std::size_t i = 0; i < scalars.size(); ++i) {
            expect_bit_identical(scalars[i], batch, i, when);
        }
    }
};

TEST(PatientBatchDifferential, TimestepChangeMidRunRefreshesFactors) {
    Twin twin{cohort(31, 12)};
    twin.scalars[2].bolus(Dose::mg(2.0));
    twin.batch.bolus(2, Dose::mg(2.0));
    for (int tick = 0; tick < 300; ++tick) twin.step(1.0);
    twin.expect_identical("dt=1.0");
    for (int tick = 0; tick < 400; ++tick) twin.step(0.25);
    twin.expect_identical("dt=1.0 -> 0.25");
    for (int tick = 0; tick < 300; ++tick) twin.step(1.0);
    twin.expect_identical("dt=1.0 -> 0.25 -> 1.0");
    // Lanes added after the factors exist get them for the current dt.
    const PatientParameters late = cohort(32, 1).front();
    twin.scalars.emplace_back(late);
    twin.scalars.back().bolus(Dose::mg(2.0));
    const std::size_t i = twin.batch.add(late);
    twin.batch.bolus(i, Dose::mg(2.0));
    for (int tick = 0; tick < 120; ++tick) twin.step(1.0);
    twin.expect_identical("late lane");
}

TEST(PatientBatchDifferential, AntagonistDecayReturnsToCachedEc50Power) {
    Twin twin{cohort(41, 6)};
    for (std::size_t i = 0; i < twin.scalars.size(); ++i) {
        twin.scalars[i].bolus(Dose::mg(3.0));
        twin.batch.bolus(i, Dose::mg(3.0));
    }
    for (int tick = 0; tick < 120; ++tick) twin.step(1.0);
    // A short half-life so the level falls below 1e-4 (and snaps to 0)
    // within the run.
    twin.scalars[1].give_antagonist(8.0, 60.0);
    twin.batch.give_antagonist(1, 8.0, 60.0);
    for (int tick = 0; tick < 300; ++tick) twin.step(1.0);
    ASSERT_GT(twin.batch.antagonist_level(1), 0.0);
    twin.expect_identical("antagonist active");
    for (int tick = 0; tick < 900; ++tick) twin.step(1.0);
    ASSERT_EQ(twin.batch.antagonist_level(1), 0.0);
    ASSERT_GT(twin.batch.effect_site(1).as_ng_per_ml(), 0.0);
    twin.expect_identical("antagonist decayed");
    for (int tick = 0; tick < 300; ++tick) twin.step(1.0);
    twin.expect_identical("after decay");
}

TEST(PatientBatch, ConcurrentFirstStepMatchesSerialStepping) {
    // The hospital engine's wards make a fresh batch's first step_range
    // calls from several threads at once; exactly one of them computes
    // the factors and none steps a lane before they exist.
    constexpr std::size_t kThreads = 4;
    Twin twin{cohort(51, 40)};
    const std::size_t n = twin.scalars.size();
    auto step_concurrently = [&](double dt) {
        std::latch start{kThreads};
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                twin.batch.step_range(n * t / kThreads,
                                      n * (t + 1) / kThreads, dt);
            });
        }
        for (auto& th : threads) th.join();
        for (auto& p : twin.scalars) p.step(dt);
    };
    for (int tick = 0; tick < 30; ++tick) step_concurrently(1.0);
    twin.expect_identical("concurrent dt=1.0");
    for (int tick = 0; tick < 30; ++tick) step_concurrently(0.5);
    twin.expect_identical("concurrent dt=0.5");
}

// ------------------------------------------- lane-range independence ----

TEST(PatientBatch, StepRangeOrderDoesNotChangeLanes) {
    // The hospital engine steps disjoint ward ranges from different
    // threads; a lane's trajectory must not depend on which range it
    // was stepped through or in what order ranges were visited.
    const auto params = cohort(21, 32);
    PatientBatch a, b;
    for (const auto& p : params) {
        (void)a.add(p);
        (void)b.add(p);
    }
    a.bolus(5, Dose::mg(2.0));
    b.bolus(5, Dose::mg(2.0));
    for (int tick = 0; tick < 300; ++tick) {
        a.step_all(1.0);
        b.step_range(24, 32, 1.0);  // reversed visit order, uneven split
        b.step_range(8, 24, 1.0);
        b.step_range(0, 8, 1.0);
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_EQ(a.spo2_raw(i), b.spo2_raw(i)) << i;
        EXPECT_EQ(a.paco2_mmhg(i), b.paco2_mmhg(i)) << i;
        EXPECT_EQ(a.body_burden(i).as_mg(), b.body_burden(i).as_mg()) << i;
    }
}

// ------------------------------------------------- contract parity ----

TEST(PatientBatch, ValidationMatchesScalarContract) {
    PatientBatch batch;
    const std::size_t i = batch.add(
        physio::nominal_parameters(Archetype::kTypicalAdult));

    EXPECT_THROW(batch.bolus(i, Dose::mg(-1.0)), std::invalid_argument);
    EXPECT_THROW(batch.set_infusion_rate(i, InfusionRate::mg_per_hour(-0.1)),
                 std::invalid_argument);
    EXPECT_THROW(batch.give_antagonist(i, 0.0, 600.0), std::invalid_argument);
    EXPECT_THROW(batch.step_range(0, 2, 1.0), std::out_of_range);
    EXPECT_THROW(batch.step_all(0.0), std::invalid_argument);

    PatientParameters bad =
        physio::nominal_parameters(Archetype::kTypicalAdult);
    bad.pd.ec50_ng_ml = -1.0;
    EXPECT_THROW((void)batch.add(bad), std::invalid_argument);
    // A rejected add must not leave a half-initialized lane behind.
    EXPECT_EQ(batch.size(), 1u);
    batch.step_all(1.0);
}

TEST(PatientBatch, NonFiniteDtIsRejectedBeforeAnyLaneMoves) {
    const auto p = physio::nominal_parameters(Archetype::kTypicalAdult);
    PatientBatch batch, twin;
    for (PatientBatch* b : {&batch, &twin}) {
        (void)b->add(p);
        b->set_infusion_rate(0, InfusionRate::mg_per_hour(2.0));
        b->step_all(0.25);
    }
    for (const double dt : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0}) {
        EXPECT_THROW(batch.step_all(dt), std::invalid_argument);
        EXPECT_THROW(batch.step_range(0, 1, dt), std::invalid_argument);
    }
    // The rejected calls left the lane exactly where its twin is.
    batch.step_all(0.25);
    twin.step_all(0.25);
    EXPECT_EQ(batch.spo2_raw(0), twin.spo2_raw(0));
    EXPECT_EQ(batch.paco2_mmhg(0), twin.paco2_mmhg(0));
    EXPECT_EQ(batch.pao2_mmhg(0), twin.pao2_mmhg(0));
    EXPECT_EQ(batch.respiratory_drive(0), twin.respiratory_drive(0));
    EXPECT_TRUE(std::isfinite(batch.spo2_raw(0)));
}

TEST(PatientBatch, StateBytesIsFlatInDurationAndLinearInPatients) {
    PatientBatch small, large;
    const auto p = physio::nominal_parameters(Archetype::kTypicalAdult);
    for (int i = 0; i < 10; ++i) (void)small.add(p);
    for (int i = 0; i < 1000; ++i) (void)large.add(p);

    const std::size_t before = large.state_bytes();
    for (int tick = 0; tick < 500; ++tick) large.step_all(1.0);
    EXPECT_EQ(large.state_bytes(), before)
        << "stepping must not allocate (flat-memory contract)";
    EXPECT_GT(large.state_bytes(), small.state_bytes());
    EXPECT_LT(large.state_bytes(), 4u * 1024u * 1024u)
        << "1000 patients must stay well under a few MiB";
}

}  // namespace
