/**
 * @file
 * Linear solvers for the crossbar circuit simulation: Jacobi-
 * preconditioned conjugate gradient for the (SPD) MNA systems, dense
 * Gaussian elimination as a validation reference, and the Thomas
 * algorithm for the tridiagonal line systems of the fast sneak-path
 * model.
 */

#ifndef LADDER_CIRCUIT_SOLVERS_HH
#define LADDER_CIRCUIT_SOLVERS_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sparse.hh"

namespace ladder
{

/** Outcome of an iterative solve. */
struct CgResult
{
    bool converged = false;
    std::size_t iterations = 0;
    double residualNorm = 0.0;
};

/**
 * Process-wide solver-effort counters snapshotted into run manifests
 * and stats.json. Only order-independent aggregates are kept (integer
 * sums and maxima), so totals are bit-identical however the parallel
 * sweep interleaves the table builds that drive the solves.
 */
struct SolverCounters
{
    std::uint64_t cgSolves = 0;
    std::uint64_t cgIterations = 0;
    std::uint64_t cgStalls = 0;      //!< solves that hit the cap
    double cgMaxResidual = 0.0;      //!< worst relative residual left
    std::uint64_t picardSolves = 0;  //!< nonlinear outer solves (MNA
                                     //!< Picard + fast-model loops)
    std::uint64_t picardIterations = 0;
    std::uint64_t picardStalls = 0;
};

/** Thread-safe accumulator behind the counters above. */
class SolverInstrumentation
{
  public:
    static SolverInstrumentation &instance();

    void noteCg(const CgResult &result, double relativeResidual);
    void notePicard(std::size_t iterations, bool converged);

    SolverCounters snapshot() const;
    void reset();

  private:
    mutable std::mutex mutex_;
    SolverCounters counters_;
};

/**
 * Solve A x = b for SPD A with Jacobi-preconditioned conjugate gradient.
 *
 * @param a SPD system matrix.
 * @param b Right-hand side.
 * @param x In: initial guess (warm start). Out: solution.
 * @param tol Relative residual tolerance (||r|| / ||b||).
 * @param maxIter Iteration cap (0 means 10 * n).
 */
CgResult conjugateGradient(const SparseMatrix &a,
                           const std::vector<double> &b,
                           std::vector<double> &x,
                           double tol = 1e-10,
                           std::size_t maxIter = 0);

/**
 * Solve a dense system by Gaussian elimination with partial pivoting.
 * Intended for validation on small systems only (O(n^3)).
 *
 * @param dense Row-major n x n matrix (modified in place).
 * @param b Right-hand side (modified in place; becomes the solution).
 */
void denseSolveInPlace(std::vector<double> &dense,
                       std::vector<double> &b,
                       std::size_t n);

/**
 * Solve a tridiagonal system with the Thomas algorithm.
 *
 * diag/rhs are modified in place; the solution is returned in rhs.
 * sub[i] couples row i to i-1 (sub[0] unused); sup[i] couples row i to
 * i+1 (sup[n-1] unused).
 */
void solveTridiagonal(std::vector<double> &sub,
                      std::vector<double> &diag,
                      std::vector<double> &sup,
                      std::vector<double> &rhs);

/**
 * The Thomas algorithm over @p lanes independent tridiagonal systems
 * of order @p n that share their off-diagonals, stored interleaved:
 * row i of lane l lives at diag[i * stride + l] and rhs[i * stride + l]
 * (stride >= lanes). Every lane performs exactly the scalar sweep's
 * operations in its order, so each solution is bit-identical to
 * solving that lane alone; interleaving only lets the lanes' serial
 * divide chains overlap.
 *
 * sub[i] couples row i to i-1 (sub[0] unused); sup[i] couples row i to
 * i+1 (sup[n-1] unused). diag/rhs are modified in place; the solution
 * is returned in rhs.
 */
inline void
solveTridiagonalLanes(const double *sub, const double *sup, double *diag,
                      double *rhs, std::size_t n, std::size_t stride,
                      std::size_t lanes)
{
    for (std::size_t i = 1; i < n; ++i) {
        const double s = sub[i];
        const double u = sup[i - 1];
        double *d = diag + i * stride;
        double *r = rhs + i * stride;
        const double *dPrev = d - stride;
        const double *rPrev = r - stride;
        for (std::size_t l = 0; l < lanes; ++l) {
            double w = s / dPrev[l];
            d[l] -= w * u;
            r[l] -= w * rPrev[l];
        }
    }
    double *dLast = diag + (n - 1) * stride;
    double *rLast = rhs + (n - 1) * stride;
    for (std::size_t l = 0; l < lanes; ++l)
        rLast[l] /= dLast[l];
    for (std::size_t i = n - 1; i-- > 0;) {
        const double u = sup[i];
        const double *d = diag + i * stride;
        double *r = rhs + i * stride;
        const double *rNext = r + stride;
        for (std::size_t l = 0; l < lanes; ++l)
            r[l] = (r[l] - u * rNext[l]) / d[l];
    }
}

} // namespace ladder

#endif // LADDER_CIRCUIT_SOLVERS_HH
