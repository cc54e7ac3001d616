#include "smart_alarm.hpp"

#include <algorithm>

namespace mcps::core {

using mcps::sim::SimTime;

namespace {
/// Bus metric names in SmartAlarm::Metric order.
constexpr std::array<std::string_view, 4> kMetricNames{"spo2", "resp_rate",
                                                       "etco2", "pulse_rate"};
}  // namespace

std::string_view to_string(AlarmSeverity s) noexcept {
    switch (s) {
        case AlarmSeverity::kAdvisory: return "advisory";
        case AlarmSeverity::kWarning: return "warning";
        case AlarmSeverity::kCritical: return "critical";
    }
    return "unknown";
}

SmartAlarm::SmartAlarm(devices::DeviceContext ctx, std::string name,
                       SmartAlarmConfig cfg)
    : ctx_{ctx},
      name_{std::move(name)},
      cfg_{std::move(cfg)},
      score_trace_{ctx_.trace, "smart_alarm/" + name_ + "/score"} {
    last_fired_.fill(SimTime::never());
    last_tech_alert_.fill(SimTime::never());
    if (cfg_.check_period <= mcps::sim::SimDuration::zero()) {
        throw std::invalid_argument("SmartAlarmConfig: check period <= 0");
    }
    if (cfg_.critical_threshold < cfg_.warning_threshold) {
        throw std::invalid_argument(
            "SmartAlarmConfig: critical threshold below warning threshold");
    }
}

void SmartAlarm::start() {
    if (running_) return;
    running_ = true;
    sub_ = ctx_.bus.subscribe(name_, "vitals/" + cfg_.bed + "/*",
                              [this](const mcps::net::Message& m) {
                                  on_vital(m);
                              });
    check_handle_ =
        ctx_.sim.schedule_periodic(cfg_.check_period, [this] { evaluate(); });
}

void SmartAlarm::stop() {
    if (!running_) return;
    running_ = false;
    check_handle_.cancel();
    ctx_.bus.unsubscribe(sub_);
}

void SmartAlarm::on_vital(const mcps::net::Message& m) {
    const auto* v = mcps::net::payload_as<mcps::net::VitalSignPayload>(m);
    if (!v) return;
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        if (v->metric == kMetricNames[i]) {
            metrics_[i] = MetricState{v->value, v->valid, ctx_.sim.now()};
            return;
        }
    }
}

bool SmartAlarm::fresh(const MetricState& m) const {
    if (m.updated_at.is_never()) return false;
    return ctx_.sim.now() - m.updated_at <= cfg_.staleness_limit;
}

SmartAlarm::Contribution SmartAlarm::contribution(Metric metric) const {
    Contribution c;
    const MetricState& m = metrics_[metric];
    if (!fresh(m)) return c;
    const double v = m.value;
    c.degraded = !m.valid;

    switch (metric) {
        case kSpO2:
            c.points = cfg_.w_spo2 * std::max(0.0, cfg_.spo2_norm - v);
            break;
        case kRespRate:
            c.points = cfg_.w_rr * std::max(0.0, cfg_.rr_norm - v);
            break;
        case kEtCO2:
            c.points =
                cfg_.w_etco2_low * std::max(0.0, cfg_.etco2_low_norm - v) +
                cfg_.w_etco2_high * std::max(0.0, v - cfg_.etco2_high_norm);
            break;
        case kPulseRate:
            c.points = cfg_.w_pulse * (std::max(0.0, cfg_.pulse_low - v) +
                                       std::max(0.0, v - cfg_.pulse_high));
            break;
        case kMetricCount: break;
    }
    c.abnormal = c.points > 0.5;
    if (c.degraded) c.points *= cfg_.invalid_factor;
    return c;
}

void SmartAlarm::evaluate() {
    const SimTime now = ctx_.sim.now();

    // Technical alerts for silent channels (distinct from patient alarms;
    // rate-limited per channel).
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        const MetricState& m = metrics_[i];
        const bool silent =
            !m.updated_at.is_never() && !fresh(m);  // seen once, now quiet
        if (!silent) continue;
        SimTime& last = last_tech_alert_[i];
        if (!last.is_never() && now - last < cfg_.rearm) continue;
        last = now;
        const std::string metric{kMetricNames[i]};
        tech_alerts_.push_back(TechnicalAlert{now, metric});
        ctx_.trace.mark(now, "smart_alarm/" + name_ + "/tech/" + metric);
    }

    // Fused risk score with corroboration weighting.
    std::array<Contribution, kMetricCount> contribs;
    int abnormal_count = 0;
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        contribs[i] = contribution(static_cast<Metric>(i));
        if (contribs[i].abnormal) ++abnormal_count;
    }
    double score = 0.0;
    double best = -1.0;
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        double pts = contribs[i].points;
        if (contribs[i].abnormal && abnormal_count < 2) {
            pts *= cfg_.uncorroborated_factor;  // lone anomaly: discounted
        }
        score += pts;
        if (pts > best) {
            best = pts;
            dominant_ = static_cast<Metric>(i);
        }
    }
    score_ = score;
    score_trace_.record(now, score);

    // Persistence-filtered threshold crossing, critical first.
    auto try_fire = [&](AlarmSeverity sev, double threshold,
                        SimTime& above_since) -> bool {
        if (score >= threshold) {
            if (above_since.is_never()) above_since = now;
            if (now - above_since >= cfg_.persistence) {
                SimTime& last = last_fired_[static_cast<std::size_t>(sev)];
                if (last.is_never() || now - last >= cfg_.rearm) {
                    last = now;
                    const std::string key{to_string(sev)};
                    const std::string dominant{kMetricNames[dominant_]};
                    alarms_.push_back(AlarmEvent{now, sev, score, dominant});
                    ctx_.trace.mark(now, "smart_alarm/" + name_ + "/" + key);
                    ctx_.bus.publish(name_, "alarm/" + name_,
                                     mcps::net::StatusPayload{key, dominant});
                }
                return true;
            }
        } else {
            above_since = SimTime::never();
        }
        return false;
    };

    if (try_fire(AlarmSeverity::kCritical, cfg_.critical_threshold,
                 above_critical_since_)) {
        return;  // critical supersedes warning
    }
    try_fire(AlarmSeverity::kWarning, cfg_.warning_threshold,
             above_warning_since_);
}

}  // namespace mcps::core
