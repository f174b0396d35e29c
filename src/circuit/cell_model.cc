#include "cell_model.hh"

#include <cmath>

#include "common/log.hh"

namespace ladder
{

CellModel::CellModel(const CrossbarParams &params) : params_(params)
{
    ladder_assert(params.selectorNonlinearity > 1.0,
                  "selector nonlinearity must exceed 1");
    ladder_assert(params.writeVolts > 0.0, "write voltage must be > 0");

    // Solve sinh(B*Vw) / sinh(B*Vw/2) = kappa by bisection. The ratio is
    // monotonically increasing in B from 2 (B -> 0) to infinity.
    const double vw = params.writeVolts;
    const double kappa = params.selectorNonlinearity;
    auto ratio = [vw](double b) {
        return std::sinh(b * vw) / std::sinh(b * vw / 2.0);
    };
    double lo = 1e-9;
    double hi = 1.0;
    while (ratio(hi) < kappa)
        hi *= 2.0;
    for (int iter = 0; iter < 200; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (ratio(mid) < kappa)
            lo = mid;
        else
            hi = mid;
    }
    b_ = 0.5 * (lo + hi);
    const double sinhBVw = std::sinh(b_ * vw);
    for (CellState state : {CellState::HRS, CellState::LRS}) {
        isat_[static_cast<unsigned>(state)] =
            vw * nominalConductance(state) / sinhBVw;
    }
}

double
CellModel::nominalConductance(CellState state) const
{
    return state == CellState::LRS ? 1.0 / params_.lrsOhms
                                   : 1.0 / params_.hrsOhms;
}

} // namespace ladder
