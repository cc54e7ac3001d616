/// \file smart_alarm.hpp
/// \brief Multi-parameter smart alarm — the paper's "context-aware
/// intelligence" thread.
///
/// Classic monitors alarm on each vital in isolation, producing the false
/// alarm floods that desensitize clinicians (the paper's motivation for
/// smarter, fused alarms). This engine fuses SpO2, respiratory rate,
/// EtCO2 and pulse rate into one risk score with three defenses against
/// false alarms:
///
///  1. *Corroboration weighting*: a severe anomaly on one channel is
///     discounted unless at least one other channel is also abnormal —
///     a motion artifact dips SpO2 but leaves EtCO2/RR/pulse untouched,
///     whereas true respiratory depression drags several channels.
///  2. *Persistence filtering*: the score must stay above threshold for a
///     hold time before the alarm sounds.
///  3. *Quality gating*: samples flagged invalid by the sensor contribute
///     at reduced weight; stale channels contribute nothing (and raise a
///     separate technical alert instead of a clinical alarm).
///
/// Experiment E3 compares this engine against the BedsideMonitor's
/// per-metric thresholds on identical traces.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "devices/device.hpp"

namespace mcps::core {

/// Alarm severity bands.
enum class AlarmSeverity { kAdvisory, kWarning, kCritical };

[[nodiscard]] std::string_view to_string(AlarmSeverity s) noexcept;

/// One fired clinical alarm.
struct AlarmEvent {
    mcps::sim::SimTime at;
    AlarmSeverity severity;
    double score;
    std::string dominant_metric;
};

/// One technical (sensor, not patient) alert.
struct TechnicalAlert {
    mcps::sim::SimTime at;
    std::string metric;  ///< silent channel
};

struct SmartAlarmConfig {
    std::string bed = "bed1";
    mcps::sim::SimDuration check_period = mcps::sim::SimDuration::seconds(1);
    mcps::sim::SimDuration staleness_limit = mcps::sim::SimDuration::seconds(12);

    // Risk-score weights (points per unit of abnormality).
    double w_spo2 = 0.55;    ///< per % below spo2_norm
    double spo2_norm = 93.0;
    double w_rr = 0.55;      ///< per breath/min below rr_norm
    double rr_norm = 10.0;
    double w_etco2_low = 0.30;   ///< per mmHg below etco2_low_norm
    double etco2_low_norm = 20.0;
    double w_etco2_high = 0.18;  ///< per mmHg above etco2_high_norm
    double etco2_high_norm = 55.0;
    double w_pulse = 0.06;   ///< per bpm outside [pulse_low, pulse_high]
    double pulse_low = 50.0;
    double pulse_high = 120.0;

    /// Uncorroborated anomalies are scaled by this factor.
    double uncorroborated_factor = 0.35;
    /// Invalid-flagged samples are scaled by this factor.
    double invalid_factor = 0.5;

    double warning_threshold = 2.5;
    double critical_threshold = 5.0;
    mcps::sim::SimDuration persistence = mcps::sim::SimDuration::seconds(12);
    /// Same-severity alarms re-arm after this interval.
    mcps::sim::SimDuration rearm = mcps::sim::SimDuration::seconds(60);
};

/// The fusion engine. Not a Device: it is supervisory software that can
/// run on an ICE supervisor host; it only consumes bus traffic.
class SmartAlarm {
public:
    SmartAlarm(devices::DeviceContext ctx, std::string name,
               SmartAlarmConfig cfg);

    /// Begin consuming vitals and evaluating.
    void start();
    void stop();

    [[nodiscard]] const std::vector<AlarmEvent>& alarms() const noexcept {
        return alarms_;
    }
    [[nodiscard]] const std::vector<TechnicalAlert>& technical_alerts()
        const noexcept {
        return tech_alerts_;
    }
    /// Current fused risk score (for tracing/threshold studies).
    [[nodiscard]] double current_score() const noexcept { return score_; }
    [[nodiscard]] const SmartAlarmConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    /// The fused channels, as slots of metrics_. Other metric names on the
    /// bed's vitals topics are ignored.
    enum Metric : std::size_t {
        kSpO2,
        kRespRate,
        kEtCO2,
        kPulseRate,
        kMetricCount
    };

    /// Last sample of one channel; updated_at is never until the first one.
    struct MetricState {
        double value = 0.0;
        bool valid = true;
        mcps::sim::SimTime updated_at = mcps::sim::SimTime::never();
    };

    struct Contribution {
        double points = 0.0;  ///< pre-corroboration
        bool abnormal = false;
        bool degraded = false;  ///< invalid-flagged sample
    };

    void on_vital(const mcps::net::Message& m);
    void evaluate();
    [[nodiscard]] bool fresh(const MetricState& m) const;
    [[nodiscard]] Contribution contribution(Metric metric) const;

    devices::DeviceContext ctx_;
    std::string name_;
    SmartAlarmConfig cfg_;
    mcps::sim::SignalRef score_trace_;  ///< "smart_alarm/<name>/score"
    std::array<MetricState, kMetricCount> metrics_{};
    double score_ = 0.0;
    Metric dominant_ = kSpO2;
    mcps::sim::SimTime above_warning_since_ = mcps::sim::SimTime::never();
    mcps::sim::SimTime above_critical_since_ = mcps::sim::SimTime::never();
    /// Last alarm per AlarmSeverity, never if none fired yet.
    std::array<mcps::sim::SimTime, 3> last_fired_;
    /// Last technical alert per channel, never if none was raised yet.
    std::array<mcps::sim::SimTime, kMetricCount> last_tech_alert_;
    std::vector<AlarmEvent> alarms_;
    std::vector<TechnicalAlert> tech_alerts_;
    mcps::sim::EventHandle check_handle_;
    mcps::net::SubscriptionId sub_{};
    bool running_ = false;
};

}  // namespace mcps::core
