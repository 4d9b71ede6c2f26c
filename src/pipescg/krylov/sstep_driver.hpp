// One driver for the s-step CG family: sCG, PsCG, sCG-sSPMV, PIPE-sCG,
// PIPE-PsCG (paper Alg. 2-7) and the depth-2 reconstructions PIPECG-OATI and
// PIPECG3.
//
// All of them are the block-Gram iteration of sstep_common.hpp.  They differ
// in three ways only, which SStepVariant names (DESIGN.md section 6 has the
// method -> variant table):
//
//   * residual: REBUILT as b - A x every outer iteration (sCG, PsCG, with the
//     s powers chained from it), or RECURRED (sCG-sSPMV recurs the residual
//     and rebuilds the powers by s SPMVs; the pipelined methods recur every
//     basis degree through the power towers T[j] = A^{j+1} P);
//   * pipelined: the one allreduce per outer iteration is blocking, or
//     non-blocking and overlapped with the s SPMVs (+ s PCs) that extend the
//     basis to degree 2s;
//   * preconditioned: the basis splits into a u-side chain
//     v_j = (M^{-1}A)^j u and its r-side twin w_j = (A M^{-1})^j r.
//
// The driver owns everything else once: setup, the rollback/degrade-s cycle
// (fault::RecoveryManager), the residual-gap ladder (sstep::GapMonitor),
// checkpoints, telemetry, divergence and stall detection, and the scalar
// work.  It advances k right-hand sides in lockstep with their dot batches
// fused into ONE allreduce per outer iteration; a solo solve is k = 1 of the
// same code.  Every column keeps its own state, so a batched column rolls
// back, degrades s and runs the gap ladder on its own while the others keep
// iterating.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

/// What distinguishes one s-step method from another.  Policies that follow
/// from `pipelined`: verified acceptance (the true residual confirms a
/// recurred convergence), scheduled residual replacement
/// (SolverOptions::replacement_period), a divergence check on every run
/// (blocking variants check only under recovery) and the checkpoint save
/// before the scalar work (blocking variants save after it).
struct SStepVariant {
  std::string name;
  bool pipelined = false;
  bool preconditioned = false;
  bool recurred = false;  ///< residual recurred (true) or rebuilt as b - A x
  int fixed_s = 0;        ///< > 0 pins the depth (PIPECG-OATI, PIPECG3)
  /// Replacement period used when SolverOptions::replacement_period is 0.
  int default_replacement_period = 0;
  /// Vector work charged to the cost model per outer iteration, in units of
  /// the global size (published FLOP counts above the reconstruction's).
  double extra_flops_per_outer = 0.0;
};

/// The variant registered under `name`: "scg", "pscg", "scg-sspmv",
/// "pipe-scg", "pipe-pscg", "pipecg-oati" or "pipecg3".  Throws
/// pipescg::Error on any other name.
SStepVariant sstep_variant(const std::string& name);

class SStepSolver final : public Solver {
 public:
  explicit SStepSolver(SStepVariant variant);

  std::string name() const override { return variant_.name; }
  SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                   const SolverOptions& opts) const override;

  /// Solve A x_i = b_i for every column in lockstep, one fused dot batch
  /// per outer iteration.  `xs` carries the initial guesses and receives the
  /// solutions.  The fused payload must fit one par::Team allreduce.  The
  /// allreduce reduces every payload entry on its own, so no column's
  /// trajectory depends on the others: on a clean run each column is
  /// bitwise identical to its solo solve.
  std::vector<SolveStats> solve_columns(Engine& engine,
                                        std::span<const Vec> bs,
                                        std::span<Vec> xs,
                                        const SolverOptions& opts) const;

 private:
  SStepVariant variant_;
};

}  // namespace pipescg::krylov
