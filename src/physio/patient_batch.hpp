/// \file patient_batch.hpp
/// \brief Batched stepping for populations of patients.
///
/// `Patient` is the scalar reference model; `PatientBatch` holds the same
/// state for N patients and advances any contiguous lane range with one
/// call. The per-lane arithmetic replicates the scalar expression
/// sequences *exactly* (same operations, same order, same clamps), so
/// under the project's default compile flags (no -ffast-math, no FMA
/// contraction on the generic x86-64 target) a batch lane is
/// bit-identical to a scalar `Patient` fed the same inputs — a property
/// the differential suite in tests/hospital pins.
///
/// Layout: one `Lane` of 40 doubles per patient, its parameters and
/// state side by side in the order the step reads them, so a lane-step
/// touches five adjacent cache lines instead of 40 scattered arrays. The
/// full `PatientParameters` are kept in a cold side vector.
///
/// What the batch buys over stepping scalar `Patient` objects is that
/// locality plus loop-invariant math done once, never different math:
///   - `1 - exp(-dt/15)` (breathing-pattern adaptation) once per call;
///   - each lane's `1 - exp(-dt/tau)` for PaCO2, PaO2 and heart rate,
///     kept in the lane and recomputed only when `dt` changes;
///   - each lane's `pow(ec50, gamma)`, computed in `add()`. It is exact
///     whenever the lane has no active antagonist, because the scalar
///     EC50 `ec50 * (1 + potency * 0)` is then `ec50` itself; lanes
///     with an antagonist (rare: nurse rescues) compute the scaled EC50
///     and its power per step as the scalar model does.
/// Each cached value is the scalar expression evaluated on the same
/// inputs, so caching cannot move a lane by one bit.
///
/// Mechanical ventilation is intentionally NOT supported here — it is an
/// E4 single-patient scenario feature, and hospital-scale cohorts are
/// spontaneously breathing PCA patients; there is simply no ventilator
/// input on this API.
///
/// Thread-safety: disjoint lane ranges may be stepped from different
/// threads concurrently provided every concurrent call passes the same
/// `dt`; the hospital engine exploits this by giving each ward a
/// contiguous range. The first call with a new `dt` refreshes every
/// lane's factors under a lock, before any lane is stepped with it.

#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "patient.hpp"

namespace mcps::physio {

/// State + parameters for a cohort of spontaneously breathing patients.
/// Lanes are append-only; indices are stable for the lifetime of the
/// batch.
class PatientBatch {
public:
    PatientBatch() = default;

    /// Append one patient initialized exactly like `Patient{params}`
    /// (baseline vitals, gas-exchange equilibrium PaO2). Returns the new
    /// lane index. \throws std::invalid_argument on invalid parameters.
    std::size_t add(const PatientParameters& params);

    void reserve(std::size_t n);
    [[nodiscard]] std::size_t size() const noexcept { return lanes_.size(); }

    /// Advance lanes [first, last) by \p dt_seconds (finite and > 0).
    /// Replicates `Patient::step` per lane. Ranges must be in-bounds.
    void step_range(std::size_t first, std::size_t last, double dt_seconds);
    /// Advance every lane.
    void step_all(double dt_seconds) { step_range(0, size(), dt_seconds); }

    /// Drug inputs (mirror the scalar API).
    void bolus(std::size_t i, Dose d);
    void set_infusion_rate(std::size_t i, InfusionRate r);
    [[nodiscard]] InfusionRate infusion_rate(std::size_t i) const noexcept {
        return InfusionRate::mg_per_hour(lanes_[i].rate_mg_h);
    }
    void give_antagonist(std::size_t i, double potency, double half_life_s);
    [[nodiscard]] double antagonist_level(std::size_t i) const noexcept {
        return lanes_[i].antag_level;
    }

    /// Observables (same value types and clamps as `Patient`).
    [[nodiscard]] SpO2 spo2(std::size_t i) const noexcept {
        return SpO2::percent_clamped(lanes_[i].spo2);
    }
    [[nodiscard]] RespRate resp_rate(std::size_t i) const noexcept {
        return RespRate::per_minute_clamped(lanes_[i].rr);
    }
    [[nodiscard]] EtCO2 etco2(std::size_t i) const noexcept {
        if (is_apneic(i)) return EtCO2::mmhg_clamped(0.0);
        return EtCO2::mmhg_clamped(lanes_[i].paco2 - 4.0);
    }
    [[nodiscard]] HeartRate heart_rate(std::size_t i) const noexcept {
        return HeartRate::bpm_clamped(lanes_[i].hr);
    }
    [[nodiscard]] bool is_apneic(std::size_t i) const noexcept {
        return lanes_[i].rr <= 0.5;
    }
    [[nodiscard]] double respiratory_drive(std::size_t i) const noexcept {
        return lanes_[i].drive;
    }
    [[nodiscard]] double paco2_mmhg(std::size_t i) const noexcept {
        return lanes_[i].paco2;
    }
    [[nodiscard]] double pao2_mmhg(std::size_t i) const noexcept {
        return lanes_[i].pao2;
    }
    /// Raw (unclamped) SpO2 percent, for aggregation without quantization.
    [[nodiscard]] double spo2_raw(std::size_t i) const noexcept {
        return lanes_[i].spo2;
    }
    [[nodiscard]] Vitals vitals(std::size_t i) const {
        return Vitals{spo2(i),      resp_rate(i),  etco2(i),
                      heart_rate(i), effect_site(i), is_apneic(i)};
    }

    /// PK observables.
    [[nodiscard]] Concentration effect_site(std::size_t i) const noexcept {
        return Concentration::ng_per_ml(lanes_[i].ce);
    }
    [[nodiscard]] Concentration plasma(std::size_t i) const noexcept {
        return Concentration::ng_per_ml(lanes_[i].a1 * 1000.0 / lanes_[i].v1);
    }
    [[nodiscard]] Dose body_burden(std::size_t i) const noexcept {
        return Dose::mg(lanes_[i].a1 + lanes_[i].a2);
    }
    [[nodiscard]] Dose total_delivered(std::size_t i) const noexcept {
        return Dose::mg(lanes_[i].delivered);
    }
    [[nodiscard]] Dose total_eliminated(std::size_t i) const noexcept {
        return Dose::mg(lanes_[i].eliminated);
    }

    [[nodiscard]] const PatientParameters& parameters(std::size_t i) const {
        return params_[i];
    }
    [[nodiscard]] double elapsed_seconds(std::size_t i) const noexcept {
        return lanes_[i].elapsed;
    }

    /// Approximate resident bytes of all lane storage (capacity-based).
    /// The hospital flat-memory test asserts this scales with patients,
    /// never with simulated time.
    [[nodiscard]] std::size_t state_bytes() const noexcept;

private:
    /// One patient's hot parameters and state, in step order. The
    /// `f_*` fields are `1 - exp(-dt/tau)` for the batch's `factor_dt_`
    /// and `ec50_pow` is `pow(ec50, gamma)`; the time constants and EC50
    /// they come from live in `params_`.
    struct Lane {
        // PK (RK4 two-compartment + effect site).
        double rate_mg_h, k10, k12, k21, ke0, v1;
        double a1, a2, ce, delivered, eliminated;
        // Antagonist.
        double antag_level, antag_potency, antag_hl;
        // Respiration.
        double gamma, emax, ec50_pow, base_paco2, co2_gain, apnea_thresh;
        double base_rr, base_vt, drive, rr, tidal;
        // Gas exchange.
        double deadspace, apnea_rise, f_co2, fio2, aa_grad, f_o2;
        double paco2, pao2, spo2;
        // Cardio.
        double base_hr, severe_spo2, hypox_gain, f_hr, hr;
        double elapsed;
    };
    static_assert(sizeof(Lane) == 40 * sizeof(double));

    /// Make every lane's `f_*` factors match \p dt. Cheap when they
    /// already do; otherwise the first caller refreshes all lanes under
    /// `factor_mu_` while concurrent callers with the same dt wait.
    void use_factors_for(double dt);
    static void set_factors(Lane& lane, const PatientParameters& params,
                            double dt);

    std::vector<Lane> lanes_;
    // Cold copy: parameters(i), factor refreshes, antagonist EC50.
    std::vector<PatientParameters> params_;
    // dt the lanes' f_* factors were computed for; 0 until the first step.
    std::atomic<double> factor_dt_{0.0};
    std::mutex factor_mu_;
};

}  // namespace mcps::physio
