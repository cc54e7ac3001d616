// presets: closed loop, one thread, obs off. A unit is one rotation of
// ScenarioRegistry::run calls over the five single-patient presets at their
// default durations, each run with a fresh seed.

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace {

namespace sc = mcps::scenario;
using mcps::obs::EventKind;

constexpr std::size_t kCount = 5;
constexpr std::array<const char*, kCount> kPresets = {
    "pca", "pca-open", "smart-alarm", "xray", "xray-manual"};

/// EventLog kinds counted for the net, ice, devices and core layers.
constexpr std::array<EventKind, 6> kKinds = {
    EventKind::kBusPublish,      EventKind::kBusDeliver,
    EventKind::kBusDrop,         EventKind::kSupervisorState,
    EventKind::kPumpCommand,     EventKind::kInterlockTrip};

/// Simulated events of one run: the PCA-family outcome, or the
/// kScenarioEnd value of an obs-on run for the x-ray family.
double events_of(const sc::RunArtifacts& a, const mcps::obs::EventLog& log) {
    if (const double* e = a.find("events_dispatched")) return *e;
    for (const auto& ev : log.events()) {
        if (ev.kind == EventKind::kScenarioEnd) return ev.value;
    }
    return 0.0;
}

/// Mean wall time of one call of \p fn over \p n calls, in microseconds.
template <class Fn>
double per_call_us(int n, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) fn();
    return static_cast<double>(now_ns() - t0) / 1e3 / n;
}

}  // namespace

void run_presets(Context& ctx, Result& r, Tracer& t) {
    const sc::ScenarioRegistry& reg = sc::registry();
    std::array<sc::ScenarioSpec, kCount> base;
    std::array<std::string, kCount> texts;
    double rotation_minutes = 0.0;
    for (std::size_t i = 0; i < kCount; ++i) {
        texts[i] = reg.default_spec(kPresets[i]).to_text();
        base[i] = sc::parse_spec(texts[i]);
        rotation_minutes += static_cast<double>(base[i].minutes);
    }
    // Warm-up, which doubles as a check: the pinned minutes=1 specs
    // reproduce their fingerprints and outcome digests.
    const std::vector<bool> pinned = pinned_ok({kPresets.begin(), kPresets.end()});
    if (ctx.setup_done()) return;
    for (const bool ok : pinned) r.check(ok);

    // With --trace 1 every second unit is traced, so the trace cost shows
    // as traced minus untraced unit time.
    Tracer off{false};
    std::vector<double> plain_ms, traced_ms;
    std::array<std::vector<double>, kCount> run_ms, obs_ratio, ns_per_event,
        events, obs_events;
    std::array<double, kKinds.size()> kinds{};
    bool kinds_taken = false;
    std::array<sc::ScenarioSpec, kCount> specs = base;
    sc::RunArtifacts last;

    const std::int64_t window = now_ns();
    std::uint64_t unit = 0;
    while (seconds_since(window) < ctx.opt.seconds) {
        const bool traced = ctx.opt.trace && unit % 2 == 0;
        Tracer& tr = traced ? t : off;
        for (std::size_t i = 0; i < kCount; ++i) {
            specs[i].seed = mix_seed(ctx.opt.seed, unit * kCount + i);
        }
        const std::int64_t u0 = now_ns();
        std::array<sc::RunArtifacts, kCount> arts;
        std::array<double, kCount> ms{};
        {
            Scope unit_span{tr, "bench.unit", unit};
            for (std::size_t i = 0; i < kCount; ++i) {
                const std::int64_t c0 = now_ns();
                Scope s{tr, std::string{"scenario.run."} + kPresets[i], unit};
                arts[i] = reg.run(specs[i]);
                ms[i] = static_cast<double>(now_ns() - c0) / 1e6;
            }
        }
        const double unit_ms = static_cast<double>(now_ns() - u0) / 1e6;
        // Nothing is cached here, so even and odd units cost the same; they
        // fill the cold_ms and edit_ms columns that pipeline defines.
        r.samples["unit_ms"].push_back(unit_ms);
        r.samples[unit % 2 == 0 ? "cold_ms" : "edit_ms"].push_back(unit_ms);
        for (const auto& a : arts) {
            r.check(a.fingerprint != 0 && !a.outcome.empty());
        }
        if (ctx.opt.trace) (traced ? traced_ms : plain_ms).push_back(unit_ms);

        if (traced) {
            // Per-layer ledger: the same runs again with obs recording on.
            // The fingerprint must not change, and the EventLog kinds count
            // what the bus, supervisor, pump and interlock did.
            for (std::size_t i = 0; i < kCount; ++i) {
                mcps::obs::EventLog log;
                mcps::obs::MetricsRegistry metrics;
                const std::int64_t c0 = now_ns();
                const sc::RunArtifacts on = [&] {
                    Scope s{t, std::string{"obs.run_recorded."} + kPresets[i],
                            unit};
                    return reg.run(specs[i], sc::RunOptions{&log, &metrics});
                }();
                const double on_ms = static_cast<double>(now_ns() - c0) / 1e6;
                r.check(on.fingerprint == arts[i].fingerprint);
                const double ev = events_of(arts[i], log);
                run_ms[i].push_back(ms[i]);
                obs_ratio[i].push_back(on_ms / ms[i]);
                events[i].push_back(ev);
                if (ev > 0) ns_per_event[i].push_back(ms[i] * 1e6 / ev);
                obs_events[i].push_back(static_cast<double>(log.size()));
                for (std::size_t k = 0; k < kKinds.size() && !kinds_taken; ++k) {
                    kinds[k] += static_cast<double>(log.count(kKinds[k]));
                }
            }
            kinds_taken = true;
        }
        last = arts[0];
        ++unit;
    }

    r.stamp.emplace_back("units", std::to_string(unit));
    if (!ctx.opt.trace) {
        add_timings(rotation_minutes, r);
        return;
    }

    for (std::size_t i = 0; i < kCount; ++i) {
        const std::string p = kPresets[i];
        r.add("scenario.run_ms." + p, median(run_ms[i]), "ms");
        r.add("sim.events." + p, median(events[i]), "count");
        r.add("sim.ns_per_event." + p, median(ns_per_event[i]), "ns");
        r.add("obs.overhead_ratio." + p, median(obs_ratio[i]), "ratio");
        r.add("obs.events." + p, median(obs_events[i]), "count");
    }
    r.add("net.bus_publish", kinds[0], "count");
    r.add("net.bus_deliver", kinds[1], "count");
    r.add("net.bus_drop", kinds[2], "count");
    r.add("net.drop_ratio",
          kinds[1] + kinds[2] > 0 ? kinds[2] / (kinds[1] + kinds[2]) : 0.0,
          "ratio");
    r.add("ice.supervisor_events", kinds[3], "count");
    r.add("devices.pump_commands", kinds[4], "count");
    r.add("core.interlock_trips", kinds[5], "count");

    std::size_t k = 0, chars = 0;
    r.add("scenario.parse_spec_us", per_call_us(5000, [&] {
              chars += sc::parse_spec(texts[k++ % kCount]).name.size();
          }), "us");
    r.check(chars > 0 && sc::parse_spec(texts[0]) == base[0]);
    std::ostringstream sink;
    r.add("scenario.write_json_us", per_call_us(5000, [&] {
              sink.str({});
              last.write_json(sink);
          }), "us");
    r.add("bench.trace_overhead_ms", median(traced_ms) - median(plain_ms), "ms");
    add_self_times(t, traced_ms.size(), r);
}

}  // namespace perfbench
