/// \file test_hospital_config.cpp
/// \brief `HospitalConfig::validate` rejects every non-finite real field.
///
/// A check written as `x < 0.0` is false for NaN, and an infinite time
/// reaches `std::llround` in the engine (where it becomes LLONG_MIN, so
/// an infinite lockout would mean no lockout at all). Each field gets its
/// own test.

#include <gtest/gtest.h>

#include <limits>

#include "hospital/hospital_config.hpp"
#include "hospital/hospital_engine.hpp"

namespace {

using mcps::hospital::HospitalConfig;
using mcps::hospital::HospitalConfigError;
using mcps::hospital::HospitalEngine;

/// NaN and +/-inf in \p member each fail validation, both directly and
/// through the engine constructor.
void expect_non_finite_rejected(double HospitalConfig::*member) {
    ASSERT_NO_THROW(HospitalConfig{}.validate());
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        HospitalConfig cfg;
        cfg.*member = bad;
        EXPECT_THROW(cfg.validate(), HospitalConfigError) << bad;
        EXPECT_THROW(HospitalEngine{cfg}, HospitalConfigError) << bad;
    }
}

TEST(HospitalConfigNonFinite, TickS) {
    expect_non_finite_rejected(&HospitalConfig::tick_s);
}
TEST(HospitalConfigNonFinite, Spo2AlarmThreshold) {
    expect_non_finite_rejected(&HospitalConfig::spo2_alarm_threshold);
}
TEST(HospitalConfigNonFinite, InterlockDeadlineS) {
    expect_non_finite_rejected(&HospitalConfig::interlock_deadline_s);
}
TEST(HospitalConfigNonFinite, MonitorPeriodS) {
    expect_non_finite_rejected(&HospitalConfig::monitor_period_s);
}
TEST(HospitalConfigNonFinite, NurseServiceS) {
    expect_non_finite_rejected(&HospitalConfig::nurse_service_s);
}
TEST(HospitalConfigNonFinite, DemandPerHour) {
    expect_non_finite_rejected(&HospitalConfig::demand_per_hour);
}
TEST(HospitalConfigNonFinite, BolusMg) {
    expect_non_finite_rejected(&HospitalConfig::bolus_mg);
}
TEST(HospitalConfigNonFinite, InfusionMgPerHour) {
    expect_non_finite_rejected(&HospitalConfig::infusion_mg_per_hour);
}
TEST(HospitalConfigNonFinite, LockoutS) {
    expect_non_finite_rejected(&HospitalConfig::lockout_s);
}
TEST(HospitalConfigNonFinite, StormFraction) {
    expect_non_finite_rejected(&HospitalConfig::storm_fraction);
}
TEST(HospitalConfigNonFinite, StormBolusMg) {
    expect_non_finite_rejected(&HospitalConfig::storm_bolus_mg);
}
TEST(HospitalConfigNonFinite, StormAtS) {
    expect_non_finite_rejected(&HospitalConfig::storm_at_s);
}

}  // namespace
