#include "pk_model.hpp"

#include <array>
#include <cmath>

namespace mcps::physio {

void PkParameters::validate() const {
    if (v1_liters <= 0) throw std::invalid_argument("PkParameters: v1 <= 0");
    if (k10_per_min <= 0) throw std::invalid_argument("PkParameters: k10 <= 0");
    if (k12_per_min < 0) throw std::invalid_argument("PkParameters: k12 < 0");
    if (k21_per_min < 0) throw std::invalid_argument("PkParameters: k21 < 0");
    if (ke0_per_min <= 0) throw std::invalid_argument("PkParameters: ke0 <= 0");
}

PkTwoCompartment::PkTwoCompartment(const PkParameters& params)
    : params_{params} {
    params_.validate();
}

void PkTwoCompartment::bolus(Dose d) {
    if (d < Dose::zero()) throw std::invalid_argument("bolus: negative dose");
    a1_mg_ += d.as_mg();
    delivered_mg_ += d.as_mg();
}

namespace {
struct Deriv {
    double da1, da2, dce;
};
}  // namespace

void PkTwoCompartment::step(double dt_seconds, InfusionRate rate) {
    if (!std::isfinite(dt_seconds) || dt_seconds <= 0) {
        throw std::invalid_argument("step: dt must be finite and > 0");
    }
    if (rate < InfusionRate::zero()) {
        throw std::invalid_argument("step: negative infusion rate");
    }
    const double dt_min = dt_seconds / 60.0;
    const double u_mg_per_min = rate.as_mg_per_hour() / 60.0;
    const double k10 = params_.k10_per_min;
    const double k12 = params_.k12_per_min;
    const double k21 = params_.k21_per_min;
    const double ke0 = params_.ke0_per_min;
    const double v1 = params_.v1_liters;

    auto f = [&](double a1, double a2, double ce) -> Deriv {
        // Plasma concentration in ng/ml == ug/L: a1 [mg] * 1000 / v1 [L].
        const double c1 = a1 * 1000.0 / v1;
        return Deriv{
            u_mg_per_min - (k10 + k12) * a1 + k21 * a2,
            k12 * a1 - k21 * a2,
            ke0 * (c1 - ce),
        };
    };

    const Deriv k1 = f(a1_mg_, a2_mg_, ce_ng_ml_);
    const Deriv k2 = f(a1_mg_ + 0.5 * dt_min * k1.da1,
                       a2_mg_ + 0.5 * dt_min * k1.da2,
                       ce_ng_ml_ + 0.5 * dt_min * k1.dce);
    const Deriv k3 = f(a1_mg_ + 0.5 * dt_min * k2.da1,
                       a2_mg_ + 0.5 * dt_min * k2.da2,
                       ce_ng_ml_ + 0.5 * dt_min * k2.dce);
    const Deriv k4 = f(a1_mg_ + dt_min * k3.da1, a2_mg_ + dt_min * k3.da2,
                       ce_ng_ml_ + dt_min * k3.dce);

    const double a1_before = a1_mg_;
    const double a2_before = a2_mg_;
    a1_mg_ += dt_min / 6.0 * (k1.da1 + 2 * k2.da1 + 2 * k3.da1 + k4.da1);
    a2_mg_ += dt_min / 6.0 * (k1.da2 + 2 * k2.da2 + 2 * k3.da2 + k4.da2);
    ce_ng_ml_ += dt_min / 6.0 * (k1.dce + 2 * k2.dce + 2 * k3.dce + k4.dce);
    if (a1_mg_ < 0) a1_mg_ = 0;
    if (a2_mg_ < 0) a2_mg_ = 0;
    if (ce_ng_ml_ < 0) ce_ng_ml_ = 0;

    const double input_mg = u_mg_per_min * dt_min;
    delivered_mg_ += input_mg;
    // Mass balance: whatever entered but is no longer in a body compartment
    // was eliminated (k10 path). Guard against tiny negative values from
    // the clamps above.
    const double eliminated =
        input_mg - ((a1_mg_ - a1_before) + (a2_mg_ - a2_before));
    if (eliminated > 0) eliminated_mg_ += eliminated;
}

Concentration PkTwoCompartment::plasma() const noexcept {
    return Concentration::ng_per_ml(a1_mg_ * 1000.0 / params_.v1_liters);
}

Concentration one_compartment_bolus_analytic(const PkParameters& params,
                                             Dose bolus, double t_seconds) {
    params.validate();
    const double c0 = bolus.as_mg() * 1000.0 / params.v1_liters;
    return Concentration::ng_per_ml(
        c0 * std::exp(-params.k10_per_min * t_seconds / 60.0));
}

}  // namespace mcps::physio
