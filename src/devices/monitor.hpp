/// \file monitor.hpp
/// \brief Bedside multi-parameter monitor with classic threshold alarms.
///
/// This is the *baseline* the paper's smart-alarm thread argues against:
/// each vital sign is compared against a static threshold in isolation,
/// so every motion artifact or brief dropout rings the room. Experiment
/// E3 pits this device against the core library's fused SmartAlarm.

#pragma once

#include <optional>
#include <vector>

#include "device.hpp"

namespace mcps::devices {

/// One per-metric threshold rule.
struct ThresholdRule {
    std::string metric;  ///< e.g. "spo2"
    double low = -1e300;   ///< alarm when value < low
    double high = 1e300;   ///< alarm when value > high
    /// Consecutive violating samples required before the alarm fires
    /// (1 = immediate, the common clinical default).
    int persistence = 1;
};

/// A fired alarm record.
struct MonitorAlarm {
    mcps::sim::SimTime at;
    std::string metric;
    double value;
    std::string reason;  ///< "low" or "high"
};

struct MonitorConfig {
    std::string bed = "bed1";
    /// A metric older than this is considered stale (sensor silent).
    mcps::sim::SimDuration staleness_limit = mcps::sim::SimDuration::seconds(10);
    /// Re-arm interval: after firing, an alarm for the same metric cannot
    /// re-fire within this period (prevents one event counting many times).
    mcps::sim::SimDuration rearm = mcps::sim::SimDuration::seconds(30);
    std::vector<ThresholdRule> rules;

    /// Conventional adult defaults for the three interlock vitals.
    [[nodiscard]] static MonitorConfig adult_defaults(std::string bed = "bed1");
};

/// Last-known view of one metric.
struct MetricView {
    double value = 0.0;
    bool valid = true;
    mcps::sim::SimTime updated_at;
};

class BedsideMonitor : public Device {
public:
    BedsideMonitor(DeviceContext ctx, std::string name, MonitorConfig cfg);

    /// Latest value for a metric (nullopt if never seen).
    [[nodiscard]] std::optional<MetricView> latest(
        const std::string& metric) const;
    /// True if the metric's last update is older than the staleness limit.
    [[nodiscard]] bool is_stale(const std::string& metric) const;

    [[nodiscard]] const std::vector<MonitorAlarm>& alarms() const noexcept {
        return alarms_;
    }
    [[nodiscard]] const MonitorConfig& config() const noexcept { return cfg_; }

protected:
    void on_start() override;
    void on_stop() override;

private:
    /// Everything the monitor keeps about one metric name.
    struct MetricSlot {
        std::string metric;
        std::optional<MetricView> latest;
        int violation_streak = 0;  ///< shared by every rule on this metric
        mcps::sim::SimTime last_fired = mcps::sim::SimTime::never();
    };

    /// Slot index of \p metric, or npos if it has none yet.
    [[nodiscard]] std::size_t find_slot(std::string_view metric) const noexcept;
    void on_vital(const mcps::net::Message& m);
    void fire(MetricSlot& slot, double value, const std::string& why);

    MonitorConfig cfg_;
    /// One slot per distinct rule metric (in rule order), then one per
    /// other metric name as it first arrives.
    std::vector<MetricSlot> slots_;
    std::vector<std::size_t> rule_slot_;  ///< slot of cfg_.rules[i]
    std::vector<MonitorAlarm> alarms_;
    mcps::net::SubscriptionId sub_;
};

}  // namespace mcps::devices
