#include "fastmodel.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/profiler.hh"
#include "solvers.hh"

namespace ladder
{

namespace
{

constexpr std::size_t maxIter = 200;
// Current scale is ~1e-4 A, voltage ~1 V; a combined absolute
// tolerance works for both.
constexpr double tol = 2e-7;
constexpr double damping = 0.35;

} // namespace

SneakPathModel::SneakPathModel(const CrossbarParams &params)
    : params_(params), cell_(params)
{
}

SneakPathModel::Workspace::Workspace(const SneakPathModel &model,
                                     std::size_t lanes)
{
    const CrossbarParams &p = model.params();
    ladder_assert(lanes > 0, "sneak-path workspace needs a lane");
    const std::size_t n = p.rows;
    const std::size_t m = p.cols;
    rows_ = n;
    cols_ = m;
    lanes_.resize(lanes);
    vWl_.resize(m * lanes);
    newWl_.resize(m * lanes);
    wlState_.resize(m * lanes);
    vBl_.resize(n * lanes);
    newBl_.resize(n * lanes);
    blState_.resize(n * lanes);
    diag_.resize(std::max(n, m) * lanes);
    cellCurrent_.resize(p.selectedCells * lanes);
    drops_.resize(p.selectedCells * lanes);

    // The parts of both line systems that do not depend on the cell
    // loads, accumulated in the order the loads are later added to.
    const double gWire = 1.0 / p.wireOhms;
    const double gIn = 1.0 / p.inputOhms;
    const double gOut = 1.0 / p.outputOhms;
    offDiag_.assign(std::max(n, m), -gWire);
    wlDiagFix_.assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
        if (j > 0)
            wlDiagFix_[j] += gWire;
        if (j + 1 < m)
            wlDiagFix_[j] += gWire;
        if (j == 0)
            wlDiagFix_[j] += gIn; // grounded driver, no RHS term
    }
    blDiagFix_.assign(n, 0.0);
    blRhsFix_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0)
            blDiagFix_[i] += gWire;
        if (i + 1 < n)
            blDiagFix_[i] += gWire;
        if (i == 0) {
            blDiagFix_[i] += gOut;
            blRhsFix_[i] += gOut * p.writeVolts;
        }
    }
}

ResetEvaluation
SneakPathModel::evaluate(const ResetCondition &cond) const
{
    Workspace ws(*this, 1);
    ResetEvaluation eval;
    evaluateBatch({&cond, 1}, {&eval, 1}, ws);
    return eval;
}

void
SneakPathModel::evaluateBatch(std::span<const ResetCondition> conds,
                              std::span<ResetEvaluation> out) const
{
    if (conds.empty())
        return;
    Workspace ws(*this, std::min(batchLanes, conds.size()));
    evaluateBatch(conds, out, ws);
}

void
SneakPathModel::evaluateBatch(std::span<const ResetCondition> conds,
                              std::span<ResetEvaluation> out,
                              Workspace &ws) const
{
    std::atomic<std::size_t> next{0};
    evaluateBatch(conds, out, ws, next);
}

void
SneakPathModel::evaluateBatch(std::span<const ResetCondition> conds,
                              std::span<ResetEvaluation> out,
                              Workspace &ws,
                              std::atomic<std::size_t> &next) const
{
    PROF_SCOPE("fastmodel_solve");
    ladder_assert(out.size() == conds.size(),
                  "batch: %zu conditions but %zu results", conds.size(),
                  out.size());
    ladder_assert(ws.rows_ == params_.rows && ws.cols_ == params_.cols,
                  "batch: workspace built for another crossbar");
    auto claim = [&]() {
        return next.fetch_add(1, std::memory_order_relaxed);
    };
    std::size_t active = 0;
    while (active < ws.lanes()) {
        const std::size_t slot = claim();
        if (slot >= conds.size())
            break;
        loadLane(ws, active++, slot, conds[slot]);
    }
    while (active > 0) {
        iterate(ws, active);
        // Descending, so the lane moved into a retired slot has
        // already been checked this round.
        for (std::size_t l = active; l-- > 0;) {
            const Workspace::Lane &lane = ws.lanes_[l];
            if (lane.maxDelta >= tol && lane.iterations < maxIter)
                continue;
            ResetEvaluation eval = finishLane(ws, l);
            out[lane.slot] = eval;
            SolverInstrumentation::instance().notePicard(
                eval.iterations, eval.converged);
            const std::size_t slot = claim();
            if (slot < conds.size())
                loadLane(ws, l, slot, conds[slot]);
            else if (l != --active)
                moveLane(ws, active, l);
        }
    }
}

void
SneakPathModel::loadLane(Workspace &ws, std::size_t lane,
                         std::size_t slot,
                         const ResetCondition &cond) const
{
    const std::size_t n = params_.rows;
    const std::size_t m = params_.cols;
    const std::size_t nSel = params_.selectedCells;
    const std::size_t stride = ws.lanes();
    ladder_assert(cond.wordline < n, "wordline out of range");
    ladder_assert((cond.byteOffset + 1) * nSel <= m,
                  "byte offset out of range");
    const double vw = params_.writeVolts;

    Workspace::Lane &l = ws.lanes_[lane];
    l = Workspace::Lane{};
    l.slot = slot;
    l.wordline = cond.wordline;
    l.blBase = cond.byteOffset * nSel;

    // Worst-case LRS placement on the selected wordline: cluster at the
    // far (high-index) end, skipping the selected byte columns.
    unsigned placed = 0;
    for (std::size_t j = m; j-- > 0;) {
        CellState state = CellState::HRS;
        bool selected = j >= l.blBase && j < l.blBase + nSel;
        if (!selected && placed < cond.wlLrsCount) {
            state = CellState::LRS;
            ++placed;
        }
        ws.wlState_[j * stride + lane] = state;
        ws.vWl_[j * stride + lane] = 0.0;
    }
    // Worst-case LRS placement on the selected bitlines: far end,
    // skipping the selected row. All selected bitlines share identical
    // structure and loads and carry cell currents within a fraction of
    // a percent of each other (they differ only through adjacent
    // wordline nodes), so one representative line solved with the
    // mean cell current stands for all of them. The per-cell drops
    // still differ through the wordline side.
    placed = 0;
    for (std::size_t i = n; i-- > 0;) {
        CellState state = CellState::HRS;
        if (i != cond.wordline && placed < cond.blLrsCount) {
            state = CellState::LRS;
            ++placed;
        }
        ws.blState_[i * stride + lane] = state;
        ws.vBl_[i * stride + lane] = vw;
    }
    // Initial guess for the cell currents: the nominal LRS current at
    // the ideal drop Vw.
    const double i0 = cell_.current(CellState::LRS, vw);
    for (std::size_t k = 0; k < nSel; ++k) {
        ws.cellCurrent_[k * stride + lane] = i0;
        ws.drops_[k * stride + lane] = vw;
    }
}

void
SneakPathModel::moveLane(Workspace &ws, std::size_t from,
                         std::size_t to) const
{
    const std::size_t stride = ws.lanes();
    ws.lanes_[to] = ws.lanes_[from];
    auto moveColumn = [&](auto &array, std::size_t rows) {
        for (std::size_t r = 0; r < rows; ++r)
            array[r * stride + to] = array[r * stride + from];
    };
    moveColumn(ws.vWl_, params_.cols);
    moveColumn(ws.wlState_, params_.cols);
    moveColumn(ws.vBl_, params_.rows);
    moveColumn(ws.blState_, params_.rows);
    moveColumn(ws.cellCurrent_, params_.selectedCells);
    moveColumn(ws.drops_, params_.selectedCells);
}

void
SneakPathModel::iterate(Workspace &ws, std::size_t active) const
{
    const std::size_t n = params_.rows;
    const std::size_t m = params_.cols;
    const std::size_t nSel = params_.selectedCells;
    const std::size_t stride = ws.lanes();
    const double vw = params_.writeVolts;
    const double vb = params_.biasVolts;
    const double gOut = 1.0 / params_.outputOhms;

    // --- Selected wordline solve (driver to ground at j = 0). ---
    for (std::size_t l = 0; l < active; ++l)
        ws.lanes_[l].biasPower = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        const double diagFix = ws.wlDiagFix_[j];
        const std::size_t row = j * stride;
        for (std::size_t l = 0; l < active; ++l) {
            Workspace::Lane &lane = ws.lanes_[l];
            const std::size_t k = j - lane.blBase; // wraps below
            if (k < nSel) {
                // Fully selected cell: known current injection.
                ws.diag_[row + l] = diagFix;
                ws.newWl_[row + l] = ws.cellCurrent_[k * stride + l];
            } else {
                // Half-selected cell shunting to the V/2 bias plane.
                double drop = vb - ws.vWl_[row + l];
                double g =
                    cell_.conductance(ws.wlState_[row + l], drop) *
                    params_.wlSneakScale;
                ws.diag_[row + l] = diagFix + g;
                ws.newWl_[row + l] = g * vb;
                lane.biasPower += vb * g * drop;
            }
        }
    }
    solveTridiagonalLanes(ws.offDiag_.data(), ws.offDiag_.data(),
                          ws.diag_.data(), ws.newWl_.data(), m, stride,
                          active);

    // --- Selected bitline solve (driver at i = 0 at Vw), one
    // representative line carrying the mean cell current. ---
    for (std::size_t l = 0; l < active; ++l) {
        double mean = 0.0;
        for (std::size_t k = 0; k < nSel; ++k)
            mean += ws.cellCurrent_[k * stride + l];
        ws.lanes_[l].meanCurrent = mean / static_cast<double>(nSel);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double diagFix = ws.blDiagFix_[i];
        const double rhsFix = ws.blRhsFix_[i];
        const std::size_t row = i * stride;
        for (std::size_t l = 0; l < active; ++l) {
            const Workspace::Lane &lane = ws.lanes_[l];
            if (i == lane.wordline) {
                ws.diag_[row + l] = diagFix;
                ws.newBl_[row + l] = rhsFix - lane.meanCurrent;
            } else {
                double drop = ws.vBl_[row + l] - vb;
                double g =
                    cell_.conductance(ws.blState_[row + l], drop) *
                    params_.blSneakScale;
                ws.diag_[row + l] = diagFix + g;
                ws.newBl_[row + l] = rhsFix + g * vb;
            }
        }
    }
    solveTridiagonalLanes(ws.offDiag_.data(), ws.offDiag_.data(),
                          ws.diag_.data(), ws.newBl_.data(), n, stride,
                          active);

    // --- Damped update of cell currents and line voltages. ---
    for (std::size_t l = 0; l < active; ++l) {
        Workspace::Lane &lane = ws.lanes_[l];
        const double blAtSel = ws.newBl_[lane.wordline * stride + l];
        lane.drvPower = static_cast<double>(nSel) * vw * gOut *
                        (vw - ws.newBl_[l]);
        double maxDelta = 0.0;
        for (std::size_t k = 0; k < nSel; ++k) {
            double &current = ws.cellCurrent_[k * stride + l];
            double drop =
                blAtSel - ws.newWl_[(lane.blBase + k) * stride + l];
            double iNew = cell_.current(CellState::LRS, drop);
            double iNext = damping * current + (1.0 - damping) * iNew;
            maxDelta = std::max(maxDelta, std::abs(iNext - current));
            current = iNext;
            ws.drops_[k * stride + l] = std::abs(drop);
        }
        lane.maxDelta = maxDelta;
        ++lane.iterations;
    }
    auto damp = [&](std::vector<double> &v, const std::vector<double> &fresh,
                    std::size_t nodes) {
        for (std::size_t idx = 0; idx < nodes * stride; idx += stride) {
            for (std::size_t l = 0; l < active; ++l) {
                double next = damping * v[idx + l] +
                              (1.0 - damping) * fresh[idx + l];
                double &maxDelta = ws.lanes_[l].maxDelta;
                maxDelta = std::max(maxDelta, std::abs(next - v[idx + l]));
                v[idx + l] = next;
            }
        }
    };
    damp(ws.vWl_, ws.newWl_, m);
    damp(ws.vBl_, ws.newBl_, n);
}

ResetEvaluation
SneakPathModel::finishLane(const Workspace &ws, std::size_t lane) const
{
    const Workspace::Lane &l = ws.lanes_[lane];
    const std::size_t stride = ws.lanes();
    ResetEvaluation eval;
    eval.iterations = l.iterations;
    eval.converged = l.maxDelta < tol;
    eval.minDropVolts = ws.drops_[lane];
    eval.maxDropVolts = ws.drops_[lane];
    for (std::size_t k = 1; k < params_.selectedCells; ++k) {
        eval.minDropVolts =
            std::min(eval.minDropVolts, ws.drops_[k * stride + lane]);
        eval.maxDropVolts =
            std::max(eval.maxDropVolts, ws.drops_[k * stride + lane]);
    }
    eval.sourcePowerWatts = l.drvPower + std::max(l.biasPower, 0.0);
    return eval;
}

} // namespace ladder
