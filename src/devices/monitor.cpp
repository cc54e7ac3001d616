#include "monitor.hpp"

namespace mcps::devices {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;

MonitorConfig MonitorConfig::adult_defaults(std::string bed) {
    MonitorConfig cfg;
    cfg.bed = std::move(bed);
    cfg.rules = {
        ThresholdRule{"spo2", 90.0, 1e300, 1},
        ThresholdRule{"resp_rate", 8.0, 30.0, 1},
        ThresholdRule{"etco2", 15.0, 60.0, 1},
        ThresholdRule{"pulse_rate", 45.0, 130.0, 1},
    };
    return cfg;
}

BedsideMonitor::BedsideMonitor(DeviceContext ctx, std::string name,
                               MonitorConfig cfg)
    : Device{ctx, std::move(name), DeviceKind::kMonitor}, cfg_{std::move(cfg)} {
    add_capability("display");
    add_capability("threshold-alarms");
    for (const auto& rule : cfg_.rules) {
        std::size_t slot = find_slot(rule.metric);
        if (slot == std::string::npos) {
            slot = slots_.size();
            slots_.push_back(MetricSlot{rule.metric, {}, 0, SimTime::never()});
        }
        rule_slot_.push_back(slot);
    }
}

std::size_t BedsideMonitor::find_slot(std::string_view metric) const noexcept {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].metric == metric) return i;
    }
    return std::string::npos;
}

void BedsideMonitor::on_start() {
    sub_ = bus().subscribe(name(), "vitals/" + cfg_.bed + "/*",
                           [this](const mcps::net::Message& m) { on_vital(m); });
}

void BedsideMonitor::on_stop() { bus().unsubscribe(sub_); }

std::optional<MetricView> BedsideMonitor::latest(
    const std::string& metric) const {
    const std::size_t slot = find_slot(metric);
    if (slot == std::string::npos) return std::nullopt;
    return slots_[slot].latest;
}

bool BedsideMonitor::is_stale(const std::string& metric) const {
    const auto view = latest(metric);
    if (!view) return true;
    return sim().now() - view->updated_at > cfg_.staleness_limit;
}

void BedsideMonitor::fire(MetricSlot& slot, double value,
                          const std::string& why) {
    if (!slot.last_fired.is_never() &&
        sim().now() - slot.last_fired < cfg_.rearm) {
        return;
    }
    slot.last_fired = sim().now();
    alarms_.push_back(MonitorAlarm{sim().now(), slot.metric, value, why});
    trace().mark(sim().now(), "monitor_alarm/" + slot.metric + "/" + why);
    publish("alarm/" + name(),
            mcps::net::StatusPayload{"threshold", slot.metric + ":" + why});
}

void BedsideMonitor::on_vital(const mcps::net::Message& m) {
    const auto* v = mcps::net::payload_as<mcps::net::VitalSignPayload>(m);
    if (!v) return;
    std::size_t slot = find_slot(v->metric);
    if (slot == std::string::npos) {
        slot = slots_.size();
        slots_.push_back(MetricSlot{v->metric, {}, 0, SimTime::never()});
    }
    MetricSlot& s = slots_[slot];
    s.latest = MetricView{v->value, v->valid, sim().now()};

    for (std::size_t r = 0; r < cfg_.rules.size(); ++r) {
        if (rule_slot_[r] != slot) continue;
        const ThresholdRule& rule = cfg_.rules[r];
        const bool low = v->value < rule.low;
        const bool high = v->value > rule.high;
        if (low || high) {
            if (++s.violation_streak >= rule.persistence) {
                fire(s, v->value, low ? "low" : "high");
            }
        } else {
            s.violation_streak = 0;
        }
    }
}

}  // namespace mcps::devices
