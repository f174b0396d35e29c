/**
 * @file
 * Fast sneak-path macromodel of a crossbar RESET.
 *
 * Instead of solving all rows*cols*2 MNA nodes, the model keeps only the
 * lines that matter to first order for the selected cells' voltage drop:
 * the selected wordline and the selected bitlines, each discretized into
 * per-crosspoint nodes. Half-selected cells hang off these lines as
 * voltage-dependent shunt loads to the V/2 bias (unselected lines are
 * assumed to sit at their driver potential, the standard approximation
 * in crossbar design-space studies). Each line is then a tridiagonal
 * system solved with the Thomas algorithm inside a damped fixed-point
 * loop that exchanges the selected-cell currents between the wordline
 * and bitline solves.
 *
 * Cost is O(rows + cols) per nonlinear iteration, dominated by the
 * ~1000 sinh calls of the cell law. A 512x512 operating point takes
 * ~18 iterations, about 0.8 ms solved alone on a 2.1 GHz core.
 * evaluateBatch advances several operating points in lockstep so
 * their serial Thomas chains and sinh calls overlap (about 0.55 ms per
 * point), and each point's arithmetic is exactly that of a lone solve.
 * Accuracy is validated against CrossbarMna in the test suite.
 */

#ifndef LADDER_CIRCUIT_FASTMODEL_HH
#define LADDER_CIRCUIT_FASTMODEL_HH

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

#include "cell_model.hh"
#include "reset_condition.hh"

namespace ladder
{

/** Fast 1-D coupled-line crossbar RESET evaluator. */
class SneakPathModel
{
  public:
    /** Operating points a batch advances in lockstep by default. */
    static constexpr std::size_t batchLanes = 8;

    /**
     * Scratch state of evaluateBatch for up to @p lanes operating
     * points, laid out structure-of-arrays (node-major, lane-minor).
     * All memory is allocated by the constructor; evaluateBatch never
     * touches the heap, so one workspace per thread lets worker
     * threads solve without allocating.
     */
    class Workspace
    {
      public:
        Workspace(const SneakPathModel &model,
                  std::size_t lanes = batchLanes);

        std::size_t lanes() const { return lanes_.size(); }

      private:
        friend class SneakPathModel;

        /** Per-lane scalars of the fixed-point loop. */
        struct Lane
        {
            std::size_t slot = 0; //!< index into the batch
            std::size_t wordline = 0;
            std::size_t blBase = 0; //!< first selected bitline
            std::size_t iterations = 0;
            double meanCurrent = 0.0;
            double biasPower = 0.0;
            double drvPower = 0.0;
            double maxDelta = 0.0;
        };

        std::size_t rows_ = 0;
        std::size_t cols_ = 0;
        std::vector<Lane> lanes_;
        std::vector<double> vWl_, vBl_;     //!< damped line voltages
        std::vector<double> newWl_, newBl_; //!< Thomas RHS / solution
        std::vector<double> diag_;          //!< Thomas diagonal
        std::vector<double> cellCurrent_, drops_;
        std::vector<CellState> wlState_, blState_;
        // Lane-independent structure, built once.
        std::vector<double> offDiag_;   //!< the constant -1/Rwire
        std::vector<double> wlDiagFix_; //!< wire + driver part of diag
        std::vector<double> blDiagFix_;
        std::vector<double> blRhsFix_;  //!< bitline driver injection
    };

    explicit SneakPathModel(const CrossbarParams &params);

    /** Evaluate one RESET operating point (a batch of one). */
    ResetEvaluation evaluate(const ResetCondition &cond) const;

    /**
     * Evaluate every condition of @p conds into the matching slot of
     * @p out. Up to ws.lanes() conditions advance in lockstep; a lane
     * whose solve finishes writes its result and loads the next
     * pending condition. Each result is bit-identical to evaluating
     * its condition alone, whatever lane it ran in or what ran beside
     * it.
     */
    void evaluateBatch(std::span<const ResetCondition> conds,
                       std::span<ResetEvaluation> out,
                       Workspace &ws) const;

    /** As above, with a workspace allocated for this call. */
    void evaluateBatch(std::span<const ResetCondition> conds,
                       std::span<ResetEvaluation> out) const;

    /**
     * As above, but lanes claim conditions from the shared cursor
     * @p next, so several threads (each with its own workspace) can
     * work through one list: a thread slowed by a busy core simply
     * claims fewer conditions. Returns once the list is exhausted and
     * this thread's lanes have finished.
     */
    void evaluateBatch(std::span<const ResetCondition> conds,
                       std::span<ResetEvaluation> out, Workspace &ws,
                       std::atomic<std::size_t> &next) const;

    const CellModel &cellModel() const { return cell_; }
    const CrossbarParams &params() const { return params_; }

  private:
    void loadLane(Workspace &ws, std::size_t lane, std::size_t slot,
                  const ResetCondition &cond) const;
    void moveLane(Workspace &ws, std::size_t from, std::size_t to) const;
    void iterate(Workspace &ws, std::size_t active) const;
    ResetEvaluation finishLane(const Workspace &ws,
                               std::size_t lane) const;

    CrossbarParams params_;
    CellModel cell_;
};

} // namespace ladder

#endif // LADDER_CIRCUIT_FASTMODEL_HH
