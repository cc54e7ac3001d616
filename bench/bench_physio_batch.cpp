/// \file bench_physio_batch.cpp
/// \brief PR-9 physio-stepping campaign: scalar `Patient` loop vs the
/// batched `PatientBatch`, plus end-to-end hospital-engine
/// throughput at population scale.
///
/// The scalar numbers double as the frozen reference for BENCH_9.json
/// (bench/baselines/physio_scalar_pr9_prechange.json): the scalar path
/// is exactly the pre-change per-patient stepping, so measuring it on
/// the same machine/workload as the batch gives the honest before/after.

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "hospital/hospital_engine.hpp"
#include "physio/patient.hpp"
#include "physio/patient_batch.hpp"
#include "physio/population.hpp"
#include "sim/table.hpp"

using namespace mcps;
using Clock = std::chrono::steady_clock;

namespace {

double secs_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<physio::PatientParameters> make_cohort(std::size_t n) {
    const auto& archetypes = physio::all_archetypes();
    std::vector<physio::PatientParameters> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(physio::sample_patient_indexed(
            archetypes[i % archetypes.size()], 42, i));
    }
    return out;
}

/// Every lane runs the hospital engine's default background infusion, so
/// the effect site fills and the Hill-equation branch is exercised.
physio::InfusionRate cohort_infusion() {
    return physio::InfusionRate::mg_per_hour(
        // mcps-analyze: allow(ICE1): reads the engine's default infusion rate only
        hospital::HospitalConfig{}.infusion_mg_per_hour);
}

/// Patient-steps/sec for the scalar loop (best of `reps`).
double scalar_steps_per_sec(const std::vector<physio::PatientParameters>& ps,
                            int ticks, int reps) {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        std::vector<physio::Patient> pats;
        pats.reserve(ps.size());
        for (const auto& p : ps) {
            pats.emplace_back(p);
            pats.back().set_infusion_rate(cohort_infusion());
        }
        const auto t0 = Clock::now();
        for (int t = 0; t < ticks; ++t) {
            for (auto& p : pats) p.step(1.0);
        }
        const double dt = secs_since(t0);
        const double rate =
            static_cast<double>(ps.size()) * ticks / (dt > 0 ? dt : 1e-9);
        if (rate > best) best = rate;
    }
    return best;
}

/// Patient-steps/sec for the batch (best of `reps`).
double batch_steps_per_sec(const std::vector<physio::PatientParameters>& ps,
                           int ticks, int reps) {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        physio::PatientBatch batch;
        batch.reserve(ps.size());
        for (const auto& p : ps) {
            batch.set_infusion_rate(batch.add(p), cohort_infusion());
        }
        const auto t0 = Clock::now();
        for (int t = 0; t < ticks; ++t) batch.step_all(1.0);
        const double dt = secs_since(t0);
        const double rate =
            static_cast<double>(ps.size()) * ticks / (dt > 0 ? dt : 1e-9);
        if (rate > best) best = rate;
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    benchio::JsonReporter json{argc, argv, "physio_batch"};
    json.set_seed(1);
    const bool quick = benchio::quick_mode(argc, argv);

    const std::size_t cohort_n = quick ? 64 : 1024;
    const int ticks = quick ? 60 : 600;
    const int reps = quick ? 1 : 7;
    std::cout << "Physio stepping: PatientBatch vs scalar Patient\n\n";

    // ---- raw stepping throughput --------------------------------------
    const auto cohort = make_cohort(cohort_n);
    const double scalar = scalar_steps_per_sec(cohort, ticks, reps);
    const double batch = batch_steps_per_sec(cohort, ticks, reps);
    {
        sim::Table t({"path", "patients", "steps_per_sec", "speedup"});
        t.row().cell("scalar").cell(static_cast<std::int64_t>(cohort_n))
            .cell(scalar, 0).cell(1.0, 2);
        t.row().cell("batch").cell(static_cast<std::int64_t>(cohort_n))
            .cell(batch, 0).cell(batch / scalar, 2);
        t.print(std::cout, "physio stepping throughput (dt=1 s, best-of-" +
                               std::to_string(reps) + ")");
        std::cout << '\n';
    }
    json.metric("physio.scalar.steps_per_sec", scalar, "steps/s");
    json.metric("physio.batch.steps_per_sec", batch, "steps/s");

    // ---- hospital engine, population scale ----------------------------
    {
        sim::Table t({"patients", "wards", "jobs", "steps_per_sec",
                      "state_mib"});
        struct Scale {
            std::size_t patients, wards;
            unsigned jobs;
        };
        std::vector<Scale> scales;
        if (quick) {
            scales = {{96, 4, 1}, {96, 4, 4}};
        } else {
            scales = {{96, 4, 1}, {2000, 20, 1}, {2000, 20, 4}};
        }
        for (const Scale& s : scales) {
            // mcps-analyze: allow(ICE1): bench drives the engine directly so registry plumbing stays out of the perf loop
            hospital::HospitalConfig cfg;
            cfg.patients = s.patients;
            cfg.wards = s.wards;
            cfg.jobs = s.jobs;
            cfg.duration = sim::SimDuration::minutes(quick ? 2 : 10);
            const hospital::HospitalReport rep =
                hospital::HospitalEngine{cfg}.run();
            t.row()
                .cell(static_cast<std::int64_t>(s.patients))
                .cell(static_cast<std::int64_t>(s.wards))
                .cell(static_cast<std::int64_t>(s.jobs))
                .cell(rep.steps_per_sec, 0)
                .cell(static_cast<double>(rep.state_bytes) /
                          (1024.0 * 1024.0),
                      3);
            char key[64];
            std::snprintf(key, sizeof key,
                          "hospital.p%zu.j%u.steps_per_sec", s.patients,
                          s.jobs);
            json.metric(key, rep.steps_per_sec, "steps/s");
            if (s.jobs == 1) {  // state is jobs-independent; emit once
                std::snprintf(key, sizeof key, "hospital.p%zu.state_mib",
                              s.patients);
                json.metric(key,
                            static_cast<double>(rep.state_bytes) /
                                (1024.0 * 1024.0),
                            "MiB");
            }
        }
        t.print(std::cout, "hospital engine end-to-end throughput");
    }

    return json.write() ? 0 : 1;
}
