// Batched multi-RHS s-step CG: k independent systems A x_i = b_i against
// the SAME operator, advanced in lockstep with their per-iteration dot
// batches FUSED into one allreduce.
//
// This is the reduction-side analogue of the paper's s-step argument: an
// s-step method amortizes one global reduction over s iterations of one
// solve; the batched solve amortizes one global reduction over k *solves*.
// Per outer iteration every active column performs its own basis build
// (s SPMVs, one halo epoch each when a matrix-powers kernel is attached)
// and contributes its 2s+1 moments + s x s Gram cross block to a single
// widened payload of k * (2s+1 + s^2) doubles -- one allreduce latency paid
// where k independent solves would pay k.
//
// It is the s-step driver (sstep_driver.hpp) run with k columns, so a solo
// scg-sspmv solve is the k = 1 case of the same code.  The fixed-order
// allreduce reduces every payload entry independently, so each column's
// trajectory is BITWISE IDENTICAL to the same solve run alone on a clean
// run.  Each column also carries its own recovery state: a column hit by a
// fault rolls back to its own checkpoint, degrades its own s and runs its
// own residual-gap ladder while the others keep iterating (a degraded
// column's slice of the payload shrinks).  Columns that finish stop
// contributing to the payload.
//
// Used by service::Session to batch compatible admission-queue requests;
// see DESIGN.md section 12.
#pragma once

#include <span>
#include <vector>

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

/// Largest k a monomial batch accepts at block depth s: the fused payload
/// k * (2s+1 + s^2) must fit one par::Team allreduce (kMaxPayload doubles).
/// A shifted (Newton/Chebyshev) basis widens each column's slice to
/// (s+1)(s+2)/2 + s^2, and gap monitoring adds one value per column; the
/// solve rejects a batch whose widest payload does not fit.
std::size_t max_batch_columns(int s);

/// Solve A x_i = b_i for every column i in lockstep (method "scg-sspmv",
/// paper Alg. 4, basis builds through Engine::apply_op_powers).  `bs` and
/// `xs` must have equal size; xs carries the initial guesses and receives
/// the solutions.  Returns one SolveStats per column, each that of an
/// independent single-RHS solve (bitwise on clean runs -- see the header
/// comment).
std::vector<SolveStats> scg_multi_solve(Engine& engine,
                                        std::span<const Vec> bs,
                                        std::span<Vec> xs,
                                        const SolverOptions& opts);

}  // namespace pipescg::krylov
