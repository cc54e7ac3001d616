// hospital: closed loop, one thread. A unit is one run of the `hospital`
// preset (2000 patients, 20 wards, 60 sim-min, jobs=1) through
// HospitalEngine::run, each with a fresh seed. PatientBatch::step_range does
// most of the work; neither sim::Simulation nor net::Bus is used.

#include <string>
#include <vector>

#include "common.hpp"
#include "hospital/hospital_engine.hpp"
#include "physio/patient.hpp"
#include "physio/patient_batch.hpp"
#include "physio/population.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

namespace sc = mcps::scenario;
namespace hp = mcps::hospital;
namespace ph = mcps::physio;

/// The archetype HospitalEngine gives patient \p index of a cohort. The
/// engine keeps its own copy private; this one mirrors it, so the physio
/// figures below step the population the preset steps.
ph::Archetype archetype_for(hp::CohortMix mix, std::uint64_t seed,
                            std::size_t index) {
    if (mix == hp::CohortMix::kTypical) return ph::Archetype::kTypicalAdult;
    mcps::sim::RngStream rng{seed,
                             "hospital.archetype." + std::to_string(index)};
    const double u = rng.uniform();
    if (mix == hp::CohortMix::kMixed) {
        if (u < 0.55) return ph::Archetype::kTypicalAdult;
        if (u < 0.70) return ph::Archetype::kOpioidSensitive;
        if (u < 0.80) return ph::Archetype::kOpioidTolerant;
        if (u < 0.92) return ph::Archetype::kElderly;
        return ph::Archetype::kHighRisk;
    }
    if (u < 0.30) return ph::Archetype::kTypicalAdult;
    if (u < 0.55) return ph::Archetype::kOpioidSensitive;
    if (u < 0.60) return ph::Archetype::kOpioidTolerant;
    if (u < 0.80) return ph::Archetype::kElderly;
    return ph::Archetype::kHighRisk;
}

/// ns per lane-step of PatientBatch::step_range and of scalar
/// Patient::step over the cohort the engine builds for \p cfg: its
/// archetype mix, sample_patient_indexed lanes and infusion rate.
std::pair<double, double> physio_step_ns(const hp::HospitalConfig& cfg,
                                         Result& r) {
    const auto rate = ph::InfusionRate::mg_per_hour(cfg.infusion_mg_per_hour);
    ph::PatientBatch batch;
    batch.reserve(cfg.patients);
    std::vector<ph::Patient> scalar;
    scalar.reserve(cfg.patients);
    for (std::size_t i = 0; i < cfg.patients; ++i) {
        const ph::PatientParameters p = ph::sample_patient_indexed(
            archetype_for(cfg.mix, cfg.seed, i), cfg.seed, i);
        batch.add(p);
        batch.set_infusion_rate(i, rate);
        scalar.emplace_back(p);
        scalar.back().set_infusion_rate(rate);
    }
    constexpr int kSteps = 200;
    const double lane_steps = static_cast<double>(cfg.patients) * kSteps;

    const std::int64_t b0 = now_ns();
    for (int s = 0; s < kSteps; ++s) batch.step_range(0, batch.size(), cfg.tick_s);
    const double batch_ns = static_cast<double>(now_ns() - b0) / lane_steps;
    const std::int64_t s0 = now_ns();
    for (int s = 0; s < kSteps; ++s) {
        for (auto& p : scalar) p.step(cfg.tick_s);
    }
    const double scalar_ns = static_cast<double>(now_ns() - s0) / lane_steps;
    // The batch kernel replicates the scalar one expression for expression.
    bool same = true;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        same = same && batch.paco2_mmhg(i) == scalar[i].paco2_mmhg() &&
               batch.pao2_mmhg(i) == scalar[i].pao2_mmhg();
    }
    r.check(same);
    return {batch_ns, scalar_ns};
}

}  // namespace

void run_hospital(Context& ctx, Result& r, Tracer& t) {
    const sc::ScenarioRegistry& reg = sc::registry();
    const sc::ScenarioSpec base =
        sc::parse_spec(reg.default_spec("hospital").to_text());
    const hp::HospitalConfig base_cfg = sc::make_hospital_config(base);
    // Warm-up, which doubles as a check: the pinned minutes=1 specs
    // reproduce their fingerprints and outcome digests.
    const std::vector<bool> pinned = pinned_ok({"hospital", "hospital-small"});
    if (ctx.setup_done()) return;
    for (const bool ok : pinned) r.check(ok);

    // With --trace 1 every second unit is traced.
    Tracer off{false};
    std::vector<double> plain_ms, traced_ms;
    hp::HospitalReport first;
    sc::ScenarioSpec spec = base;
    sc::ScenarioSpec first_spec;

    const std::int64_t window = now_ns();
    std::uint64_t unit = 0;
    while (seconds_since(window) < ctx.opt.seconds) {
        const bool traced = ctx.opt.trace && unit % 2 == 0;
        Tracer& tr = traced ? t : off;
        spec.seed = mix_seed(ctx.opt.seed, unit);
        const std::int64_t u0 = now_ns();
        hp::HospitalReport rep;
        {
            Scope unit_span{tr, "bench.unit", unit};
            const hp::HospitalConfig cfg = [&] {
                Scope s{tr, "scenario.make_hospital_config", unit};
                return sc::make_hospital_config(spec);
            }();
            Scope s{tr, "hospital.run", unit};
            rep = hp::HospitalEngine{cfg}.run();
        }
        const double unit_ms = static_cast<double>(now_ns() - u0) / 1e6;
        // Nothing is cached here, so even and odd units cost the same; they
        // fill the cold_ms and edit_ms columns that pipeline defines.
        r.samples["unit_ms"].push_back(unit_ms);
        r.samples[unit % 2 == 0 ? "cold_ms" : "edit_ms"].push_back(unit_ms);
        if (ctx.opt.trace) (traced ? traced_ms : plain_ms).push_back(unit_ms);
        r.check(rep.fingerprint != 0 &&
                rep.patient_steps ==
                    rep.patients * static_cast<std::uint64_t>(rep.ticks));
        if (unit == 0) {
            first = rep;
            first_spec = spec;
        }
        ++unit;
    }

    r.stamp.emplace_back("units", std::to_string(unit));
    if (!ctx.opt.trace) {
        add_timings(static_cast<double>(base_cfg.patients) *
                        static_cast<double>(base.minutes),
                    r);
        return;
    }

    // A fresh-seed run must reproduce its fingerprint.
    const hp::HospitalReport again =
        hp::HospitalEngine{sc::make_hospital_config(first_spec)}.run();
    r.check(again.fingerprint == first.fingerprint);

    const auto [batch_ns, scalar_ns] =
        physio_step_ns(sc::make_hospital_config(first_spec), r);
    const double run_ms = median(t.durations_ms("hospital.run"));
    const double messages = static_cast<double>(first.vitals_messages +
                                                first.alert_messages);
    r.add("hospital.run_ms", run_ms, "ms");
    r.add("physio.batch_step_ns", batch_ns, "ns");
    r.add("physio.scalar_step_ns", scalar_ns, "ns");
    r.add("physio.share",
          static_cast<double>(first.patient_steps) * batch_ns / (run_ms * 1e6),
          "ratio");
    r.add("hospital.patient_steps", static_cast<double>(first.patient_steps),
          "count");
    r.add("hospital.bus_messages", messages, "count");
    r.add("hospital.bus_drop_ratio",
          messages > 0 ? static_cast<double>(first.bus_dropped) / messages : 0.0,
          "ratio");
    r.add("hospital.alarm_attend_ratio",
          first.alarms_raised > 0
              ? static_cast<double>(first.alarms_attended) /
                    static_cast<double>(first.alarms_raised)
              : 0.0,
          "ratio");
    r.add("hospital.state_bytes", static_cast<double>(first.state_bytes),
          "bytes");
    r.add("bench.trace_overhead_ms", median(traced_ms) - median(plain_ms), "ms");
    add_self_times(t, traced_ms.size(), r);
}

}  // namespace perfbench
