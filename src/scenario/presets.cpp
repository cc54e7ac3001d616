#include "presets.hpp"

#include <algorithm>

namespace mcps::scenario {

namespace {

std::uint64_t denied_total(const devices::PumpStats& p) noexcept {
    return p.denied_lockout + p.denied_hourly + p.denied_state;
}

std::size_t procedures_for(std::uint64_t minutes) noexcept {
    // One procedure per 3-minute gap, at least one (the mapping the
    // golden x-ray trace was recorded with).
    return std::max<std::size_t>(1, static_cast<std::size_t>(minutes) / 3);
}

}  // namespace

core::PcaScenarioConfig canonical_pca(std::uint64_t seed,
                                      mcps::sim::SimDuration duration) {
    core::PcaScenarioConfig cfg;
    cfg.seed = seed;
    cfg.duration = duration;
    cfg.patient =
        physio::nominal_parameters(physio::Archetype::kHighRisk);
    cfg.demand_mode = core::DemandMode::kProxy;
    return cfg;
}

core::PcaScenarioConfig open_loop_pca(std::uint64_t seed,
                                      mcps::sim::SimDuration duration) {
    core::PcaScenarioConfig cfg;
    cfg.seed = seed;
    cfg.duration = duration;
    cfg.patient =
        physio::nominal_parameters(physio::Archetype::kOpioidSensitive);
    cfg.demand_mode = core::DemandMode::kProxy;
    cfg.interlock = std::nullopt;
    return cfg;
}

core::PcaScenarioConfig smart_alarm_shift(std::uint64_t seed,
                                          mcps::sim::SimDuration duration) {
    core::PcaScenarioConfig cfg;
    cfg.seed = seed;
    cfg.duration = duration;
    cfg.patient =
        physio::nominal_parameters(physio::Archetype::kTypicalAdult);
    cfg.demand_mode = core::DemandMode::kNormal;
    cfg.interlock = std::nullopt;
    apply_alarm_ward_overlay(cfg);
    return cfg;
}

core::XrayScenarioConfig canonical_xray(std::uint64_t seed,
                                        std::uint64_t minutes) {
    core::XrayScenarioConfig cfg;
    cfg.seed = seed;
    cfg.procedures = procedures_for(minutes);
    return cfg;
}

core::XrayScenarioConfig manual_xray(std::uint64_t seed,
                                     std::uint64_t minutes) {
    core::XrayScenarioConfig cfg = canonical_xray(seed, minutes);
    cfg.mode = core::CoordinationMode::kManual;
    cfg.manual.premature_shot_probability = 0.12;
    cfg.manual.distraction_probability = 0.08;
    return cfg;
}

void apply_alarm_ward_overlay(core::PcaScenarioConfig& cfg) {
    cfg.with_monitor = true;
    cfg.with_smart_alarm = true;
    cfg.oximeter.artifact_probability =
        std::max(cfg.oximeter.artifact_probability, 0.004);
    cfg.oximeter.artifact_magnitude = -20.0;
}

std::vector<std::pair<std::string, double>> pca_outcome(
    const core::PcaScenarioResult& r) {
    return {
        {"min_spo2", r.min_spo2},
        {"time_spo2_below_90_s", r.time_spo2_below_90_s},
        {"time_spo2_below_85_s", r.time_spo2_below_85_s},
        {"time_apneic_s", r.time_apneic_s},
        {"severe_hypoxemia", r.severe_hypoxemia ? 1.0 : 0.0},
        {"hypoxia_onset_s", r.hypoxia_onset_s ? *r.hypoxia_onset_s : -1.0},
        {"detection_latency_s",
         r.detection_latency_s ? *r.detection_latency_s : -1.0},
        {"mean_pain", r.mean_pain},
        {"total_drug_mg", r.total_drug_mg},
        {"boluses_requested", static_cast<double>(r.pump.boluses_requested)},
        {"boluses_delivered", static_cast<double>(r.pump.boluses_delivered)},
        {"demands_denied", static_cast<double>(denied_total(r.pump))},
        {"interlock_stops", static_cast<double>(r.interlock.stops_issued)},
        {"data_loss_stops", static_cast<double>(r.interlock.data_loss_stops)},
        {"monitor_alarms", static_cast<double>(r.monitor_alarm_count)},
        {"smart_alarms", static_cast<double>(r.smart_alarm_count)},
        {"smart_critical", static_cast<double>(r.smart_critical_count)},
        {"events_dispatched", static_cast<double>(r.events_dispatched)},
    };
}

std::vector<std::pair<std::string, double>> xray_outcome(
    const core::XrayScenarioResult& r) {
    return {
        {"procedures", static_cast<double>(r.procedures)},
        {"completed", static_cast<double>(r.completed)},
        {"sharp_images", static_cast<double>(r.sharp_images)},
        {"sharp_rate", r.sharp_rate},
        {"mean_apnea_s", r.mean_apnea_s},
        {"max_apnea_s", r.max_apnea_s},
        {"total_retries", static_cast<double>(r.total_retries)},
        {"safety_auto_resumes", static_cast<double>(r.safety_auto_resumes)},
        {"min_spo2", r.min_spo2},
    };
}

hospital::HospitalConfig canonical_hospital(std::uint64_t seed,
                                            mcps::sim::SimDuration duration) {
    hospital::HospitalConfig cfg;
    cfg.seed = seed;
    cfg.duration = duration;
    return cfg;  // struct defaults ARE the canonical hospital
}

hospital::HospitalConfig small_hospital(std::uint64_t seed,
                                        mcps::sim::SimDuration duration) {
    hospital::HospitalConfig cfg;
    cfg.seed = seed;
    cfg.duration = duration;
    cfg.patients = 96;
    cfg.wards = 4;
    cfg.nurses_per_ward = 2;
    cfg.bus_capacity_per_tick = 16;
    return cfg;
}

std::vector<std::pair<std::string, double>> hospital_outcome(
    const hospital::HospitalReport& r) {
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"patients", u(r.patients)},
        {"wards", u(r.wards)},
        {"nurses_per_ward", u(r.nurses_per_ward)},
        {"ticks", static_cast<double>(r.ticks)},
        {"patient_steps", u(r.patient_steps)},
        {"boluses", u(r.boluses)},
        {"storm_boluses", u(r.storm_boluses)},
        {"vitals_messages", u(r.vitals_messages)},
        {"alert_messages", u(r.alert_messages)},
        {"bus_dropped", u(r.bus_dropped)},
        {"bus_saturated_ticks", u(r.bus_saturated_ticks)},
        {"max_bus_queue", u(r.max_bus_queue)},
        {"bus_delay_p99_s", r.bus_delay_hist.total() > 0
                                ? r.bus_delay_hist.percentile(99.0)
                                : -1.0},
        {"alarms_raised", u(r.alarms_raised)},
        {"alarms_attended", u(r.alarms_attended)},
        {"alarm_wait_p99_s", r.alarm_wait_hist.total() > 0
                                 ? r.alarm_wait_hist.percentile(99.0)
                                 : -1.0},
        {"interlock_stops", u(r.interlock_stops)},
        {"nurse_stops", u(r.nurse_stops)},
        {"rescues", u(r.rescues)},
        {"deadline_violations", u(r.deadline_violations)},
        {"severe_desat_patients", u(r.severe_desat_patients)},
        {"min_spo2_mean", r.min_spo2.mean()},
        {"min_spo2", r.min_spo2.min()},  // fleet-wide floor, the common key
        {"drug_mg_mean", r.drug_mg.mean()},
        {"drug_mg_max", r.drug_mg.max()},
        // state_mib is part of the pinned outcome digest, so any change
        // in PatientBatch's bytes per lane is a pin change.
        {"state_mib",
         static_cast<double>(r.state_bytes) / (1024.0 * 1024.0)},
    };
}

}  // namespace mcps::scenario
