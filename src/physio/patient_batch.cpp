#include "patient_batch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mcps::physio {

void PatientBatch::set_factors(Lane& lane, const PatientParameters& params,
                               double dt) {
    lane.f_co2 = 1.0 - std::exp(-dt / params.resp.tau_co2_s);
    lane.f_o2 = 1.0 - std::exp(-dt / params.resp.tau_o2_s);
    lane.f_hr = 1.0 - std::exp(-dt / params.cardio.tau_hr_s);
}

void PatientBatch::use_factors_for(double dt) {
    if (factor_dt_.load() == dt) return;
    const std::lock_guard<std::mutex> lock{factor_mu_};
    if (factor_dt_.load() == dt) return;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        set_factors(lanes_[i], params_[i], dt);
    }
    factor_dt_.store(dt);
}

std::size_t PatientBatch::add(const PatientParameters& params) {
    params.validate();
    const auto& pk = params.pk;
    const auto& pd = params.pd;
    const auto& rp = params.resp;
    const auto& cp = params.cardio;

    Lane lane{};
    lane.k10 = pk.k10_per_min;
    lane.k12 = pk.k12_per_min;
    lane.k21 = pk.k21_per_min;
    lane.ke0 = pk.ke0_per_min;
    lane.v1 = pk.v1_liters;
    lane.antag_hl = 1.0;

    lane.gamma = pd.gamma;
    lane.emax = pd.emax;
    lane.ec50_pow = std::pow(pd.ec50_ng_ml, pd.gamma);
    lane.base_paco2 = rp.baseline_paco2_mmhg;
    lane.co2_gain = rp.co2_gain;
    lane.apnea_thresh = rp.apnea_drive_threshold;
    lane.base_rr = rp.baseline_rr_per_min;
    lane.base_vt = rp.baseline_tidal_ml;
    lane.drive = 1.0;
    lane.rr = rp.baseline_rr_per_min;
    lane.tidal = rp.baseline_tidal_ml;

    lane.deadspace = rp.deadspace_ml;
    lane.apnea_rise = rp.apnea_paco2_rise_mmhg_per_s;
    lane.fio2 = rp.fio2;
    lane.aa_grad = rp.aa_gradient_mmhg;
    lane.paco2 = rp.baseline_paco2_mmhg;
    // Same equilibrium initialization as the Patient constructor.
    lane.pao2 = rp.fio2 * (760.0 - 47.0) - rp.baseline_paco2_mmhg / 0.8 -
                rp.aa_gradient_mmhg;
    lane.spo2 = severinghaus_spo2(lane.pao2);

    lane.base_hr = cp.baseline_hr_bpm;
    lane.severe_spo2 = cp.severe_hypoxia_spo2;
    lane.hypox_gain = cp.hypoxia_tachycardia_gain;
    lane.hr = cp.baseline_hr_bpm;

    const double dt = factor_dt_.load();
    if (dt > 0) set_factors(lane, params, dt);

    lanes_.push_back(lane);
    params_.push_back(params);
    return lanes_.size() - 1;
}

void PatientBatch::reserve(std::size_t n) {
    lanes_.reserve(n);
    params_.reserve(n);
}

void PatientBatch::bolus(std::size_t i, Dose d) {
    if (d < Dose::zero()) throw std::invalid_argument("bolus: negative dose");
    lanes_[i].a1 += d.as_mg();
    lanes_[i].delivered += d.as_mg();
}

void PatientBatch::set_infusion_rate(std::size_t i, InfusionRate r) {
    if (r < InfusionRate::zero()) {
        throw std::invalid_argument("set_infusion_rate: negative rate");
    }
    lanes_[i].rate_mg_h = r.as_mg_per_hour();
}

void PatientBatch::give_antagonist(std::size_t i, double potency,
                                   double half_life_s) {
    if (potency <= 0 || half_life_s <= 0) {
        throw std::invalid_argument("give_antagonist: non-positive parameter");
    }
    lanes_[i].antag_level = 1.0;
    lanes_[i].antag_potency = potency;
    lanes_[i].antag_hl = half_life_s;
}

namespace {
struct Deriv {
    double da1, da2, dce;
};
}  // namespace

void PatientBatch::step_range(std::size_t first, std::size_t last,
                              double dt_seconds) {
    // Before use_factors_for(): a bad dt must not refresh the factors.
    if (!std::isfinite(dt_seconds) || dt_seconds <= 0) {
        throw std::invalid_argument(
            "PatientBatch::step_range: dt must be finite and > 0");
    }
    if (first > last || last > lanes_.size()) {
        throw std::out_of_range("PatientBatch::step_range: bad lane range");
    }
    use_factors_for(dt_seconds);
    const double dt = dt_seconds;
    const double dt_min = dt_seconds / 60.0;
    const double alpha = 1.0 - std::exp(-dt / 15.0);

    for (std::size_t i = first; i < last; ++i) {
        Lane& L = lanes_[i];

        // --- PK: one RK4 step, expression-for-expression the scalar
        // PkTwoCompartment::step so lanes stay bit-identical.
        {
            const double u_mg_per_min = L.rate_mg_h / 60.0;
            const double k10 = L.k10;
            const double k12 = L.k12;
            const double k21 = L.k21;
            const double ke0 = L.ke0;
            const double v1 = L.v1;

            auto f = [&](double a1, double a2, double ce) -> Deriv {
                const double c1 = a1 * 1000.0 / v1;
                return Deriv{
                    u_mg_per_min - (k10 + k12) * a1 + k21 * a2,
                    k12 * a1 - k21 * a2,
                    ke0 * (c1 - ce),
                };
            };

            const Deriv k1 = f(L.a1, L.a2, L.ce);
            const Deriv k2 = f(L.a1 + 0.5 * dt_min * k1.da1,
                               L.a2 + 0.5 * dt_min * k1.da2,
                               L.ce + 0.5 * dt_min * k1.dce);
            const Deriv k3 = f(L.a1 + 0.5 * dt_min * k2.da1,
                               L.a2 + 0.5 * dt_min * k2.da2,
                               L.ce + 0.5 * dt_min * k2.dce);
            const Deriv k4 = f(L.a1 + dt_min * k3.da1, L.a2 + dt_min * k3.da2,
                               L.ce + dt_min * k3.dce);

            const double a1_before = L.a1;
            const double a2_before = L.a2;
            L.a1 += dt_min / 6.0 * (k1.da1 + 2 * k2.da1 + 2 * k3.da1 + k4.da1);
            L.a2 += dt_min / 6.0 * (k1.da2 + 2 * k2.da2 + 2 * k3.da2 + k4.da2);
            L.ce += dt_min / 6.0 * (k1.dce + 2 * k2.dce + 2 * k3.dce + k4.dce);
            if (L.a1 < 0) L.a1 = 0;
            if (L.a2 < 0) L.a2 = 0;
            if (L.ce < 0) L.ce = 0;

            const double input_mg = u_mg_per_min * dt_min;
            L.delivered += input_mg;
            const double eliminated =
                input_mg - ((L.a1 - a1_before) + (L.a2 - a2_before));
            if (eliminated > 0) L.eliminated += eliminated;
        }

        // --- Antagonist decay (Patient::step).
        if (L.antag_level > 0) {
            L.antag_level *= std::exp(-dt * 0.6931471805599453 / L.antag_hl);
            if (L.antag_level < 1e-4) L.antag_level = 0.0;
        }

        // --- Respiration (Patient::step_respiration, no ventilator path).
        {
            // hill_effect inlined with the antagonist-scaled EC50. Without
            // an antagonist the scale is exactly 1, the scaled EC50 is ec50
            // itself and its cached power is the scalar value.
            double effect = 0.0;
            const double c = L.ce;
            if (c > 0) {
                const double scale = 1.0 + L.antag_potency * L.antag_level;
                const double ec50_pow =
                    scale == 1.0
                        ? L.ec50_pow
                        : std::pow(params_[i].pd.ec50_ng_ml * scale, L.gamma);
                const double num = std::pow(c, L.gamma);
                effect = L.emax * num / (num + ec50_pow);
            }
            double drive = 1.0 - effect;
            const double co2_excess =
                std::max(0.0, (L.paco2 - L.base_paco2) / L.base_paco2);
            drive *= 1.0 + L.co2_gain * co2_excess;
            drive = std::clamp(drive, 0.0, 1.5);
            L.drive = drive;

            if (drive < L.apnea_thresh) {
                L.rr = 0.0;
                L.tidal = 0.0;
            } else {
                const double target_rr = L.base_rr * std::pow(drive, 0.7);
                const double target_vt = L.base_vt * std::pow(drive, 0.3);
                L.rr += alpha * (target_rr - L.rr);
                L.tidal += alpha * (target_vt - L.tidal);
            }
        }

        // --- Gas exchange (Patient::step_gas_exchange).
        {
            const double va =
                L.rr * std::max(0.0, L.tidal - L.deadspace) / 1000.0;
            const double va_base =
                L.base_rr * (L.base_vt - L.deadspace) / 1000.0;

            if (va < 0.05 * va_base) {
                L.paco2 += L.apnea_rise * dt;
            } else {
                const double paco2_eq =
                    std::min(130.0, L.base_paco2 * va_base / va);
                L.paco2 += (paco2_eq - L.paco2) * L.f_co2;
            }
            L.paco2 = std::clamp(L.paco2, 15.0, 140.0);

            double pao2_eq =
                L.fio2 * (760.0 - 47.0) - L.paco2 / 0.8 - L.aa_grad;
            if (va < 0.05 * va_base) pao2_eq = 30.0;
            pao2_eq = std::max(20.0, pao2_eq);
            L.pao2 += (pao2_eq - L.pao2) * L.f_o2;

            L.spo2 = severinghaus_spo2(L.pao2);
        }

        // --- Cardio (Patient::step_cardio).
        {
            double target = L.base_hr;
            const double desat = std::max(0.0, 96.0 - L.spo2);
            if (L.spo2 > L.severe_spo2) {
                target += L.hypox_gain * desat;
            } else {
                target = std::max(25.0, L.base_hr - 1.5 * desat);
            }
            L.hr += (target - L.hr) * L.f_hr;
        }

        L.elapsed += dt;
    }
}

std::size_t PatientBatch::state_bytes() const noexcept {
    return lanes_.capacity() * sizeof(Lane) +
           params_.capacity() * sizeof(PatientParameters);
}

}  // namespace mcps::physio
