/// \file test_patient.cpp
/// \brief Unit + property tests for the whole-patient model, archetypes
/// and the PCA demand process.

#include <gtest/gtest.h>

#include <cmath>

#include "physio/physio.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using namespace mcps::physio;

TEST(Units, DoseArithmeticAndComparison) {
    auto a = Dose::mg(2.0);
    auto b = Dose::mg(0.5);
    EXPECT_EQ((a + b).as_mg(), 2.5);
    EXPECT_EQ((a - b).as_mg(), 1.5);
    EXPECT_EQ((a * 2.0).as_mg(), 4.0);
    EXPECT_LT(b, a);
    a += b;
    EXPECT_EQ(a.as_mg(), 2.5);
}

TEST(Units, SpO2Validation) {
    EXPECT_THROW((void)SpO2::percent(-1.0), std::out_of_range);
    EXPECT_THROW((void)SpO2::percent(101.0), std::out_of_range);
    EXPECT_EQ(SpO2::percent_clamped(150.0).as_percent(), 100.0);
    EXPECT_EQ(SpO2::percent_clamped(-5.0).as_percent(), 0.0);
    EXPECT_EQ(SpO2::percent(97.0).as_percent(), 97.0);
}

TEST(Units, RatesRejectNegatives) {
    EXPECT_THROW((void)RespRate::per_minute(-1), std::out_of_range);
    EXPECT_THROW((void)EtCO2::mmhg(-1), std::out_of_range);
    EXPECT_THROW((void)HeartRate::bpm(-1), std::out_of_range);
    EXPECT_EQ(RespRate::per_minute_clamped(-3).as_per_minute(), 0.0);
}

TEST(HillEffect, ZeroAtZeroHalfAtEc50) {
    PdParameters pd;
    EXPECT_EQ(hill_effect(pd, Concentration::zero()), 0.0);
    EXPECT_NEAR(hill_effect(pd, Concentration::ng_per_ml(pd.ec50_ng_ml)),
                0.5 * pd.emax, 1e-12);
    // Monotone increasing.
    double prev = 0.0;
    for (double c = 1.0; c < 300.0; c += 5.0) {
        const double e = hill_effect(pd, Concentration::ng_per_ml(c));
        ASSERT_GE(e, prev);
        ASSERT_LT(e, pd.emax + 1e-12);
        prev = e;
    }
}

TEST(Severinghaus, KnownAnchors) {
    EXPECT_NEAR(severinghaus_spo2(100.0), 97.7, 0.5);
    EXPECT_NEAR(severinghaus_spo2(60.0), 89.5, 1.5);
    EXPECT_NEAR(severinghaus_spo2(27.0), 50.0, 3.0);  // P50
    EXPECT_EQ(severinghaus_spo2(0.0), 0.0);
    EXPECT_EQ(severinghaus_spo2(-5.0), 0.0);
    // Monotone.
    double prev = -1;
    for (double p = 1; p < 600; p += 5) {
        const double s = severinghaus_spo2(p);
        ASSERT_GE(s, prev);
        ASSERT_LE(s, 100.0);
        prev = s;
    }
}

TEST(Patient, BaselineIsStable) {
    Patient p{PatientParameters{}};
    for (int i = 0; i < 1200; ++i) p.step(0.5);
    EXPECT_NEAR(p.spo2().as_percent(), 97.0, 1.0);
    EXPECT_NEAR(p.resp_rate().as_per_minute(), 14.0, 0.5);
    EXPECT_NEAR(p.etco2().as_mmhg(), 36.0, 2.0);
    EXPECT_NEAR(p.heart_rate().as_bpm(), 76.0, 2.0);
    EXPECT_FALSE(p.is_apneic());
    EXPECT_NEAR(p.respiratory_drive(), 1.0, 0.05);
}

TEST(Patient, StepValidation) {
    Patient p{PatientParameters{}};
    EXPECT_THROW(p.step(0.0), std::invalid_argument);
    EXPECT_THROW(p.step(-0.5), std::invalid_argument);
    // NaN fails `dt <= 0` too, so non-finite dt needs its own rejection.
    for (const double dt : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        EXPECT_THROW(p.step(dt), std::invalid_argument);
    }
    EXPECT_EQ(p.elapsed_seconds(), 0.0);
    EXPECT_THROW(p.set_infusion_rate(InfusionRate::mg_per_hour(-1)),
                 std::invalid_argument);
}

TEST(Patient, OpioidDepressesRespiration) {
    Patient p{PatientParameters{}};
    const double rr0 = p.resp_rate().as_per_minute();
    p.bolus(Dose::mg(1.5));
    for (int i = 0; i < 1200; ++i) p.step(0.5);  // 10 min
    EXPECT_LT(p.resp_rate().as_per_minute(), rr0);
    EXPECT_GT(p.paco2_mmhg(), 40.0);
}

TEST(Patient, MassiveOverdoseCausesApneaAndDesaturation) {
    Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
    p.bolus(Dose::mg(8.0));
    bool saw_apnea = false;
    for (int i = 0; i < 2400; ++i) {  // 20 min
        p.step(0.5);
        saw_apnea = saw_apnea || p.is_apneic();
    }
    EXPECT_TRUE(saw_apnea);
    EXPECT_LT(p.spo2().as_percent(), 85.0);
    // Capnometer shows no waveform during apnea.
    if (p.is_apneic()) {
        EXPECT_EQ(p.etco2().as_mmhg(), 0.0);
    }
}

TEST(Patient, RecoversAfterDrugClears) {
    Patient p{nominal_parameters(Archetype::kTypicalAdult)};
    p.bolus(Dose::mg(2.0));
    for (int i = 0; i < 1200; ++i) p.step(0.5);  // depressed
    const double depressed_rr = p.resp_rate().as_per_minute();
    for (int i = 0; i < 2 * 7200; ++i) p.step(0.5);  // 2 h washout
    EXPECT_GT(p.resp_rate().as_per_minute(), depressed_rr);
    EXPECT_GT(p.spo2().as_percent(), 94.0);
}

TEST(Patient, DoseResponseMonotoneAcrossPatients) {
    // Bigger sustained infusion => lower minimum SpO2.
    double prev_min = 101.0;
    for (double rate : {0.0, 3.0, 8.0, 20.0}) {
        Patient p{nominal_parameters(Archetype::kTypicalAdult)};
        p.set_infusion_rate(InfusionRate::mg_per_hour(rate));
        double min_spo2 = 101.0;
        for (int i = 0; i < 7200; ++i) {
            p.step(0.5);
            min_spo2 = std::min(min_spo2, p.spo2().as_percent());
        }
        EXPECT_LE(min_spo2, prev_min + 1e-9);
        prev_min = min_spo2;
    }
}

TEST(Patient, MechanicalVentilationOverridesDrive) {
    Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
    p.bolus(Dose::mg(8.0));  // would cause apnea
    p.set_mechanical_ventilation(
        MechanicalVentilation{RespRate::per_minute(12.0), 500.0});
    for (int i = 0; i < 2400; ++i) p.step(0.5);
    EXPECT_TRUE(p.on_ventilator());
    EXPECT_FALSE(p.is_apneic());
    EXPECT_NEAR(p.resp_rate().as_per_minute(), 12.0, 0.1);
    EXPECT_GT(p.spo2().as_percent(), 90.0);
}

TEST(Patient, PausedVentilatorCausesApnea) {
    Patient p{PatientParameters{}};
    p.set_mechanical_ventilation(
        MechanicalVentilation{RespRate::per_minute(0.0), 0.0});
    for (int i = 0; i < 120; ++i) p.step(0.5);
    EXPECT_TRUE(p.is_apneic());
    // Resume restores breathing.
    p.set_mechanical_ventilation(
        MechanicalVentilation{RespRate::per_minute(12.0), 500.0});
    for (int i = 0; i < 120; ++i) p.step(0.5);
    EXPECT_FALSE(p.is_apneic());
}

TEST(Patient, HypoxiaCausesTachycardiaThenBradycardia) {
    Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
    const double hr0 = p.heart_rate().as_bpm();
    p.bolus(Dose::mg(3.0));
    double max_hr = 0.0, min_hr = 1e9;
    for (int i = 0; i < 4800; ++i) {
        p.step(0.5);
        max_hr = std::max(max_hr, p.heart_rate().as_bpm());
        min_hr = std::min(min_hr, p.heart_rate().as_bpm());
    }
    EXPECT_GT(max_hr, hr0 + 3.0);  // compensatory tachycardia occurred
}

TEST(Archetypes, AllValidateAndAreDistinct) {
    for (const auto a : all_archetypes()) {
        const auto p = nominal_parameters(a);
        EXPECT_NO_THROW(p.validate());
        EXPECT_EQ(p.label, std::string{to_string(a)});
    }
    EXPECT_LT(nominal_parameters(Archetype::kOpioidSensitive).pd.ec50_ng_ml,
              nominal_parameters(Archetype::kTypicalAdult).pd.ec50_ng_ml);
    EXPECT_GT(nominal_parameters(Archetype::kOpioidTolerant).pd.ec50_ng_ml,
              nominal_parameters(Archetype::kTypicalAdult).pd.ec50_ng_ml);
}

TEST(Archetypes, SensitivityOrderingUnderSameDose) {
    auto min_spo2_for = [](Archetype a) {
        Patient p{nominal_parameters(a)};
        p.bolus(Dose::mg(2.5));
        double m = 101.0;
        for (int i = 0; i < 7200; ++i) {
            p.step(0.5);
            m = std::min(m, p.spo2().as_percent());
        }
        return m;
    };
    EXPECT_LT(min_spo2_for(Archetype::kOpioidSensitive),
              min_spo2_for(Archetype::kTypicalAdult));
    EXPECT_LE(min_spo2_for(Archetype::kTypicalAdult),
              min_spo2_for(Archetype::kOpioidTolerant) + 1e-9);
}

TEST(Population, SamplingIsDeterministicGivenStream) {
    mcps::sim::RngStream r1{42, "pop"}, r2{42, "pop"};
    const auto a = sample_patient(Archetype::kTypicalAdult, r1);
    const auto b = sample_patient(Archetype::kTypicalAdult, r2);
    EXPECT_EQ(a.pk.v1_liters, b.pk.v1_liters);
    EXPECT_EQ(a.pd.ec50_ng_ml, b.pd.ec50_ng_ml);
}

TEST(Population, SamplesValidateAndVary) {
    mcps::sim::RngStream r{7, "pop"};
    const auto pop = sample_population(Archetype::kElderly, 50, r);
    ASSERT_EQ(pop.size(), 50u);
    mcps::sim::RunningStats ec50;
    for (const auto& p : pop) {
        EXPECT_NO_THROW(p.validate());
        ec50.add(p.pd.ec50_ng_ml);
    }
    EXPECT_GT(ec50.stddev(), 1.0);  // real spread
    // Median near nominal.
    EXPECT_NEAR(ec50.mean(), nominal_parameters(Archetype::kElderly).pd.ec50_ng_ml,
                10.0);
}

TEST(Population, ZeroVariabilityReturnsNominal) {
    mcps::sim::RngStream r{7, "pop"};
    VariabilitySpec var;
    var.cv_pk = 0.0;
    var.cv_pd = 0.0;
    var.cv_resp = 0.0;
    const auto p = sample_patient(Archetype::kTypicalAdult, r, var);
    const auto nom = nominal_parameters(Archetype::kTypicalAdult);
    EXPECT_DOUBLE_EQ(p.pd.ec50_ng_ml, nom.pd.ec50_ng_ml);
    EXPECT_DOUBLE_EQ(p.pk.v1_liters, nom.pk.v1_liters);
}

TEST(DemandModel, PainFallsWithAnalgesia) {
    DemandModel d{DemandParameters{}, mcps::sim::RngStream{1, "d"}};
    EXPECT_NEAR(d.pain(Concentration::zero()), 6.5, 1e-12);
    EXPECT_LT(d.pain(Concentration::ng_per_ml(50.0)), 3.0);
    EXPECT_GT(d.pain(Concentration::ng_per_ml(50.0)), 0.0);
}

TEST(DemandModel, SedationSuppressesPresses) {
    DemandParameters params;
    DemandModel d{params, mcps::sim::RngStream{1, "d"}};
    // Deeply sedated: never presses regardless of pain.
    for (int i = 0; i < 10000; ++i) {
        ASSERT_FALSE(d.poll_press(1.0, Concentration::zero(), 0.9));
    }
}

TEST(DemandModel, PainDrivesPressRate) {
    DemandParameters params;
    DemandModel d{params, mcps::sim::RngStream{1, "d"}};
    int presses = 0;
    for (int i = 0; i < 3600 * 10; ++i) {  // 10 h in 1 s steps, pain 6.5
        presses += d.poll_press(1.0, Concentration::zero(), 0.0) ? 1 : 0;
    }
    // Expected ~ 18 * 0.65 = 11.7 presses/hour.
    EXPECT_NEAR(presses / 10.0, 11.7, 3.0);
    // No presses when pain is fully relieved.
    DemandModel d2{params, mcps::sim::RngStream{2, "d"}};
    for (int i = 0; i < 10000; ++i) {
        ASSERT_FALSE(
            d2.poll_press(1.0, Concentration::ng_per_ml(1000.0), 0.0));
    }
}

TEST(DemandModel, ProxyIgnoresSedation) {
    DemandParameters params;
    params.proxy_presses = true;
    DemandModel d{params, mcps::sim::RngStream{3, "d"}};
    int presses = 0;
    for (int i = 0; i < 3600 * 10; ++i) {
        presses += d.poll_press(1.0, Concentration::ng_per_ml(1000.0), 0.95)
                       ? 1
                       : 0;
    }
    EXPECT_NEAR(presses / 10.0, params.proxy_rate_per_hour, 2.5);
}

}  // namespace
