#include "pipescg/krylov/sstep_driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/fault/recovery.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/sstep_common.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/par/comm.hpp"

namespace pipescg::krylov {

SStepVariant sstep_variant(const std::string& name) {
  if (name == "scg") return {.name = name};
  if (name == "pscg") return {.name = name, .preconditioned = true};
  if (name == "scg-sspmv") return {.name = name, .recurred = true};
  if (name == "pipe-scg")
    return {.name = name, .pipelined = true, .recurred = true};
  if (name == "pipe-pscg")
    return {.name = name, .pipelined = true, .preconditioned = true,
            .recurred = true};
  // PIPECG-OATI (Tiwari & Vadhiyar, HiPC 2020) launches one non-blocking
  // allreduce every two iterations and overlaps it with two PCs and two
  // SPMVs: the depth-2 instance of PIPE-PsCG (DESIGN.md, "Substitutions").
  // Its PCG-level accuracy comes from "non-recurrence computations"; a
  // period-4 explicit basis rebuild mirrors them.  Table I's 80 N FLOPs per
  // outer iteration exceed the ~66 N the core executes; the rest is charged.
  if (name == "pipecg-oati")
    return {.name = name, .pipelined = true, .preconditioned = true,
            .recurred = true, .fixed_s = 2, .default_replacement_period = 4,
            .extra_flops_per_outer = 14.0};
  // PIPECG3 (Eller & Gropp, SC'16): same communication structure as
  // PIPECG-OATI with 90 N published FLOPs.  Period-8 rebuilds reflect the
  // weaker finite-precision accuracy of its three-term recurrences.
  if (name == "pipecg3")
    return {.name = name, .pipelined = true, .preconditioned = true,
            .recurred = true, .fixed_s = 2, .default_replacement_period = 8,
            .extra_flops_per_outer = 24.0};
  PIPESCG_FAIL("'" + name + "' is not an s-step method");
}

namespace {

using namespace sstep;

// One basis chain: degrees 0..s (`basis`, with its successor `basis_next`),
// the extension to degree 2s (pipelined only) and the power towers
// T[j] = p_j(op) op P_cur, j = 0..s (blocking variants keep tower 0 = op P
// on the r side only).
struct Side {
  VecBlock basis, basis_next, ext;
  std::vector<VecBlock> t_prev, t_cur;
};

// Per-attempt state, rebuilt from the iterate at every (re)start.
struct Attempt {
  Attempt(Engine& engine, const SStepVariant& v, const BasisSpec& spec,
          const SolverOptions& opts, int s_att)
      : s(static_cast<std::size_t>(s_att)),
        basis(spec, s_att),
        layout{s_att, v.preconditioned, !basis.monomial()},
        work(s_att),
        stall(opts.stall_improvement, opts.stall_window),
        replacement_period(
            v.pipelined ? resolve_replacement_period(opts, s_att) : 0),
        towers(v.pipelined ? s + 1 : 1),
        p_prev(engine.new_block(s)),
        p_cur(engine.new_block(s)) {
    // sides[0] is the u side; a preconditioned method adds the r side.
    const std::size_t n_sides = v.preconditioned ? 2 : 1;
    for (std::size_t i = 0; i < n_sides; ++i) {
      Side& sd = sides.emplace_back();
      sd.basis = engine.new_block(s + 1);
      sd.basis_next = engine.new_block(s + 1);
      sd.ext = engine.new_block(v.pipelined ? s : 0);
      if (!v.pipelined && i + 1 < n_sides) continue;  // PsCG: r side only
      for (std::size_t j = 0; j < towers; ++j) {
        sd.t_prev.push_back(engine.new_block(s));
        sd.t_cur.push_back(engine.new_block(s));
      }
    }
  }

  Side& u() { return sides.front(); }
  Side& r() { return sides.back(); }

  std::size_t s;
  ShiftedBasis basis;
  DotLayout layout;
  ScalarWork work;
  detail::StallDetector stall;
  detail::DivergenceDetector diverge{0.0};
  int replacement_period;
  std::size_t towers;
  std::vector<Side> sides;
  VecBlock p_prev, p_cur;
  std::size_t outer = 0;
  bool force_replace = false;
  bool gap_pending = false;  // a gap-check dot rides the posted batch
};

// Everything one right-hand side carries through the lockstep loop.
struct Column {
  Column(Engine& engine, const Vec& b_in, Vec& x_in, std::size_t idx,
         const SolverOptions& opts, int s0)
      : b(&b_in),
        x(&x_in),
        index(idx),
        gap(opts.gap_tol),
        recovery(opts.recovery, opts.max_recoveries),
        s(s0) {
    if (!gap.enabled()) return;
    gap_r = engine.new_vec();
    gap_u = engine.new_vec();
  }

  const Vec* b;
  Vec* x;
  std::size_t index;
  SolveStats stats;
  double tol = 0.0;
  GapMonitor gap;  // outlives attempts: it owns the failure history
  fault::RecoveryManager recovery;
  TelemetrySnapshot telem;
  Vec gap_r, gap_u;  // true residual (and its PC image) of a gap check
  int s;
  std::size_t iterations = 0;
  double rnorm = 0.0;
  bool active = true;
  std::size_t offset = 0;  // this column's slice of the fused batch
  std::optional<Attempt> att;
};

enum class Step { kNext, kDone, kFault };

class Driver {
 public:
  Driver(const SStepVariant& v, Engine& engine, std::span<const Vec> bs,
         std::span<Vec> xs, const SolverOptions& opts)
      : v_(v),
        engine_(engine),
        opts_(opts),
        gap_period_(resolve_gap_period(opts)),
        scratch_(engine.new_vec()),
        scratch2_(engine.new_vec()) {
    const std::size_t k = bs.size();
    PIPESCG_CHECK(k >= 1 && xs.size() == k,
                  "the s-step driver needs matching, non-empty b/x columns");
    if (opts_.replacement_period == 0)
      opts_.replacement_period = v.default_replacement_period;
    const int s = v.fixed_s > 0 ? v.fixed_s : opts.s;
    // Every column's slice (plus a due gap-check dot) must fit one fused
    // allreduce; degrading s only shrinks a slice.
    const DotLayout widest{s, v.preconditioned,
                           opts.basis.type != BasisType::kMonomial};
    const std::size_t slice = widest.total() + (opts.gap_tol > 0.0 ? 1 : 0);
    PIPESCG_CHECK(k * slice <= par::Team::kMaxPayload,
                  "a batch of " + std::to_string(k) + " columns at s=" +
                      std::to_string(s) + " needs " +
                      std::to_string(k * slice) +
                      " values, more than one allreduce carries (" +
                      std::to_string(par::Team::kMaxPayload) + ")");
    cols_.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
      cols_.emplace_back(engine, bs[i], xs[i], i, opts_, s);
  }

  std::vector<SolveStats> run();

 private:
  void b_norms();
  void start(Column& c);
  bool recover(Column& c);
  Step step(Column& c);
  void update(Column& c, const ScalarWork::Result& sw);
  void post();
  void anchor(Column& c, bool next);
  void extend(Attempt& a, bool next, std::size_t first, std::size_t count,
              bool fuse);
  bool gap_through_pc() const {
    return v_.preconditioned && opts_.norm != NormType::kUnpreconditioned &&
           engine_.has_preconditioner();
  }

  const SStepVariant& v_;
  Engine& engine_;
  SolverOptions opts_;
  const int gap_period_;
  BasisSpec spec_;
  std::vector<Column> cols_;
  Vec scratch_, scratch2_;
  std::vector<DotPair> fused_, col_pairs_;
  std::vector<double> fused_values_;
  std::vector<Column*> batch_;  // columns in the posted batch, in order
  DotHandle handle_;
};

std::vector<SolveStats> Driver::run() {
  b_norms();
  // Basis shifts resolved once: every column shares the operator.  Setup-
  // only collectives for the shifted families; a monomial spec passes
  // through with no kernels.
  spec_ = resolve_basis(engine_, opts_.basis, v_.preconditioned);
  for (Column& c : cols_) {
    c.stats.basis = to_string(spec_.type);
    c.stats.basis_lambda_min = spec_.lambda_min;
    c.stats.basis_lambda_max = spec_.lambda_max;
    // The initial save means there is always a checkpoint to roll back to.
    if (c.recovery.active())
      c.recovery.save(c.x->span(), 0, std::numeric_limits<double>::infinity());
    start(c);
  }
  post();
  while (!batch_.empty()) {
    engine_.dot_wait(handle_, fused_values_);
    for (Column* c : batch_) {
      const Step st = step(*c);
      if (st == Step::kDone || (st == Step::kFault && !recover(*c)))
        c->active = false;
    }
    post();
  }

  std::vector<SolveStats> out;
  out.reserve(cols_.size());
  for (Column& c : cols_) {
    // A solve that needed rollbacks and still missed the tolerance is a
    // stagnation: recovery kept it alive past diagnostics a non-recovering
    // run would have stopped on.
    if (!c.stats.converged && c.stats.recoveries > 0) c.stats.stagnated = true;
    c.stats.final_s = c.s;
    c.stats.iterations = c.iterations;
    c.stats.final_rnorm = c.rnorm;
    detail::finalize_stats(engine_, *c.b, *c.x, opts_, c.stats);
    out.push_back(std::move(c.stats));
  }
  return out;
}

// ||b|| per column in the convergence flavor (detail::compute_b_norm), all
// columns in one blocking batch.
void Driver::b_norms() {
  const bool plain = opts_.norm == NormType::kUnpreconditioned ||
                     !engine_.has_preconditioner();
  std::vector<Vec> us;
  us.reserve(cols_.size());
  std::vector<DotPair> pairs;
  for (Column& c : cols_) {
    if (plain) {
      pairs.push_back(DotPair{c.b, c.b});
      continue;
    }
    us.push_back(engine_.new_vec());
    engine_.apply_pc(*c.b, us.back());
    const Vec* lhs = opts_.norm == NormType::kPreconditioned ? &us.back() : c.b;
    pairs.push_back(DotPair{lhs, &us.back()});
  }
  std::vector<double> vals(cols_.size(), 0.0);
  engine_.dots(pairs, vals);
  for (Column& c : cols_) {
    c.stats.method = v_.name;
    c.stats.b_norm = std::sqrt(std::max(vals[c.index], 0.0));
    c.tol = detail::threshold(c.stats, opts_);
  }
}

// Fresh attempt at depth c.s: the residual and its basis to degree s are
// rebuilt explicitly from the iterate; the caller posts the first batch.
void Driver::start(Column& c) {
  c.gap.new_attempt();
  Attempt& a = c.att.emplace(engine_, v_, spec_, opts_, c.s);
  anchor(c, /*next=*/false);
  extend(a, /*next=*/false, 1, a.s, /*fuse=*/v_.recurred);
}

// Roll a faulted column back to its checkpoint and restart it, degrading s
// after repeated no-progress failures.  False once the budget is spent.
bool Driver::recover(Column& c) {
  if (!c.recovery.admit_failure()) {
    c.stats.breakdown = true;
    c.stats.stagnated = true;
    return false;
  }
  c.iterations = c.recovery.restore(c.x->span());
  c.rnorm = c.recovery.checkpoint_rnorm();
  ++c.stats.recoveries;
  if (obs::Profiler* prof = obs::Profiler::current())
    ++prof->counters().recoveries;
  if (c.recovery.should_degrade() && c.s > 1) {
    --c.s;
    c.recovery.acknowledge_degrade();
  }
  start(c);
  return true;
}

// r = b - A x (and u = M^{-1} r) into degree 0 of the current or next basis.
void Driver::anchor(Column& c, bool next) {
  Attempt& a = *c.att;
  Vec& r0 = (next ? a.r().basis_next : a.r().basis)[0];
  engine_.apply_op(*c.x, scratch_);
  engine_.waxpy(r0, -1.0, scratch_, *c.b);
  if (v_.preconditioned)
    engine_.apply_pc(r0, (next ? a.u().basis_next : a.u().basis)[0]);
}

// Basis degrees [first, first + count) of every side from degree first-1:
// one SPMV (+ one PC) per degree.  `fuse` lets an attached matrix-powers
// kernel serve a monomial chain in one halo exchange -- impossible when a
// real preconditioner sits between the SPMVs, and left off by the methods
// that chain their rebuild SPMV by SPMV (sCG, PsCG).
void Driver::extend(Attempt& a, bool next, std::size_t first,
                    std::size_t count, bool fuse) {
  const auto chain = [&](Side& sd) {
    return ChainView{next ? &sd.basis_next : &sd.basis, &sd.ext};
  };
  const ChainView v = chain(a.u()), w = chain(a.r());
  if (!a.basis.monomial()) {
    if (v_.preconditioned)
      extend_chain_pc(engine_, a.basis, w, v, first, count, scratch_);
    else
      extend_chain(engine_, a.basis, v, first, count, scratch_);
    return;
  }
  // [first, first + count) lies inside one block: degrees 1..s or s+1..2s.
  const auto cols = [&](const ChainView& cv) {
    return first < cv.lo->size()
               ? std::span<Vec>(cv.lo->data() + first, count)
               : std::span<Vec>(cv.hi->data() + (first - cv.lo->size()), count);
  };
  const std::span<Vec> vs = cols(v), ws = cols(w);
  const Vec& seed = v[first - 1];
  if (!v_.preconditioned && fuse) {
    engine_.apply_op_powers(seed, vs);
    return;
  }
  if (fuse && engine_.has_matrix_powers() && !engine_.has_preconditioner()) {
    // Null preconditioner: the chain is pure powers of A.  The apply_pc
    // copies keep v_j a distinct vector and the pc_applies counters intact.
    engine_.apply_op_powers(seed, ws);
    for (std::size_t j = 0; j < count; ++j) engine_.apply_pc(ws[j], vs[j]);
    return;
  }
  for (std::size_t j = 0; j < count; ++j) {
    engine_.apply_op(j == 0 ? seed : vs[j - 1], ws[j]);
    if (v_.preconditioned) engine_.apply_pc(ws[j], vs[j]);
  }
}

// Fuse every active column's dot batch into ONE allreduce (blocking for the
// blocking variants), then overlap the pipelined extension to degree 2s.
// Each column contributes its DotLayout slice plus the gap-check dot when
// one is due, at its own offset: columns at different s (after a degrade)
// carry different slice lengths.
void Driver::post() {
  fused_.clear();
  batch_.clear();
  for (Column& c : cols_) {
    if (!c.active) continue;
    Attempt& a = *c.att;
    // t_prev[0] is A P_cur after update()'s swap; zero (C = 0) at setup.
    build_dot_pairs(a.layout, a.r().basis, a.u().basis, a.r().t_prev[0],
                    col_pairs_);
    if (a.gap_pending) {
      const Vec* gy = gap_through_pc() ? &c.gap_u : &c.gap_r;
      const Vec* gx = opts_.norm == NormType::kPreconditioned ? gy : &c.gap_r;
      col_pairs_.push_back(DotPair{gx, gy});
    }
    c.offset = fused_.size();
    fused_.insert(fused_.end(), col_pairs_.begin(), col_pairs_.end());
    batch_.push_back(&c);
  }
  if (batch_.empty()) return;
  fused_values_.assign(fused_.size(), 0.0);
  handle_ = engine_.dot_post(fused_, /*blocking=*/!v_.pipelined);
  if (!v_.pipelined) return;
  for (Column* c : batch_)
    extend(*c->att, /*next=*/false, c->att->s + 1, c->att->s, /*fuse=*/true);
}

// Consume this column's reduced values: gap resolve -> checkpoint ->
// (verified) acceptance -> divergence -> save -> stall -> scalar work, then
// update() builds the next outer iteration.  Every verdict derives from the
// reduced batch, identical on all ranks, so rollbacks stay in SPMD lockstep.
Step Driver::step(Column& c) {
  Attempt& a = *c.att;
  const DotLayout& layout = a.layout;
  const std::span<const double> vals(fused_values_.data() + c.offset,
                                     fused_values_.size() - c.offset);
  // Fault gate: SDC or overflow lands in the moments / Gram cross block as
  // NaN or Inf.  Only the layout prefix is gated (the gap slot may be
  // another column's value when no check is pending).
  if (c.recovery.active() && !batch_finite(vals.first(layout.total())))
    return Step::kFault;
  c.rnorm = std::sqrt(std::max(layout.norm_sq(vals, opts_.norm), 0.0));
  if (a.gap_pending) {
    // The true-residual dot rode this batch: both norms describe the
    // current iterate, at zero extra collectives.
    a.gap_pending = false;
    const double true_norm = std::sqrt(std::max(vals[layout.total()], 0.0));
    if (std::isfinite(true_norm)) {
      const GapMonitor::Action act = c.gap.observe(c.rnorm, true_norm, c.stats);
      c.telem.note_gap(true_norm, c.gap.last_gap());
      if (act == GapMonitor::Action::kReplace) {
        a.force_replace = true;
      } else if (act == GapMonitor::Action::kEscalate) {
        // Two replacements in a row failed to close the gap: the
        // recurrences are unstable at this depth, so ask for degrade-s.
        if (!c.recovery.active()) {
          c.stats.stagnated = true;
          return Step::kDone;
        }
        c.recovery.escalate_degrade();
        return Step::kFault;
      }
    } else if (c.recovery.active()) {
      return Step::kFault;
    }
  }
  c.telem.checkpoint(c.iterations, c.rnorm, opts_, static_cast<int>(a.s),
                     c.stats.recoveries);
  if (!detail::checkpoint(c.stats, opts_, c.iterations, c.rnorm, c.index)) {
    if (!c.recovery.active()) {
      c.stats.stagnated = true;
      return Step::kDone;
    }
    c.stats.breakdown = false;  // rolling back, not stopping
    return Step::kFault;
  }
  if (c.iterations > 0) engine_.mark_iteration(c.iterations - 1, c.rnorm);
  if (a.outer == 0) a.diverge = detail::DivergenceDetector(c.rnorm);

  if (c.rnorm < c.tol) {
    if (!v_.pipelined) {
      c.stats.converged = true;
      return Step::kDone;
    }
    // Verified acceptance: a recurred residual can cross the threshold
    // spuriously; only the true residual declares convergence, otherwise
    // re-anchor and keep iterating.
    const double true_norm = true_flavored_norm(
        engine_, *c.b, *c.x,
        v_.preconditioned ? opts_.norm : NormType::kUnpreconditioned,
        scratch_, scratch2_);
    c.rnorm = true_norm;
    c.stats.history.back().second = true_norm;
    if (true_norm < c.tol) {
      c.stats.converged = true;
      return Step::kDone;
    }
    a.force_replace = true;
  }
  if (c.iterations >= opts_.max_iterations) return Step::kDone;
  // Divergence safeguard: roll back when we can, stop instead of amplifying
  // further when we can't.
  if ((v_.pipelined || c.recovery.active()) && a.diverge.update(c.rnorm)) {
    if (c.recovery.active()) return Step::kFault;
    c.stats.stagnated = true;
    return Step::kDone;
  }
  // An improving iterate is worth checkpointing (raw copy, no kernels).
  if (v_.pipelined && c.recovery.should_save(c.rnorm))
    c.recovery.save(c.x->span(), c.iterations, c.rnorm);
  // Stagnation is judged on honest checkpoints only: with scheduled
  // replacement those right after a truth anchoring (a pure recurred
  // residual can keep "improving" while the true one stalls).
  const std::size_t period =
      static_cast<std::size_t>(std::max(a.replacement_period, 1));
  const bool honest = a.replacement_period == 0 || a.outer == 0 ||
                      (a.outer - 1) % period == 0;
  if (opts_.detect_stagnation && honest && a.stall.update(c.rnorm)) {
    c.stats.stagnated = true;
    return Step::kDone;
  }

  // Scalar work: two s x s solves behind an SPD Cholesky guard.
  const la::DenseMatrix cross = layout.cross(vals);
  const ScalarWork::Result sw =
      layout.gram ? a.work.step_gram(a.basis, vals.first(layout.tri_count()),
                                     cross)
                  : a.work.step(vals.first(layout.moment_count()), cross);
  if (!sw.ok) {
    if (sw.gram_breakdown) ++c.stats.gram_breakdowns;
    if (c.recovery.active()) return Step::kFault;
    c.stats.breakdown = true;
    c.stats.stagnated = true;
    return Step::kDone;
  }
  c.telem.capture(sw);
  if (!v_.pipelined && c.recovery.should_save(c.rnorm))
    c.recovery.save(c.x->span(), c.iterations, c.rnorm);
  update(c, sw);
  return Step::kNext;
}

// Direction block, towers, iterate and next basis for one outer iteration
// (paper Alg. 2 lines 9-13, Alg. 4 lines 9-15, Alg. 5 lines 14-25, Alg. 6
// lines 28-33); ends with the blocks swapped so post() reads the new basis.
void Driver::update(Column& c, const ScalarWork::Result& sw) {
  Attempt& a = *c.att;
  const std::size_t su = a.s;
  const bool first = a.outer == 0;

  // P_cur = V[0..s-1] + P_prev B; towers T[j] = seed + T_prev[j] B.  A
  // monomial seed column c of tower j is the basis vector of degree
  // j+1+c; a shifted basis seeds with the expansion of p_j(x) x p_c(x)
  // (degree <= 2s, exactly what basis plus extension hold).
  copy_block(engine_, a.u().basis, a.p_cur, su);
  if (v_.pipelined && !first) engine_.block_maxpy(a.p_cur, a.p_prev, sw.b);
  for (std::size_t j = 0; j < a.towers; ++j) {
    for (std::size_t col = 0; col < su; ++col) {
      for (Side& sd : a.sides) {
        if (sd.t_cur.empty()) continue;
        const ChainView chain{&sd.basis, &sd.ext};
        if (a.basis.monomial())
          engine_.copy(chain[j + 1 + col], sd.t_cur[j][col]);
        else
          combine_chain(engine_,
                        a.basis.seed(static_cast<int>(j),
                                     static_cast<int>(col)),
                        chain, sd.t_cur[j][col]);
      }
    }
    if (!v_.pipelined || first) continue;
    for (Side& sd : a.sides) engine_.block_maxpy(sd.t_cur[j], sd.t_prev[j], sw.b);
  }
  if (!v_.pipelined && !first) {
    engine_.block_maxpy(a.p_cur, a.p_prev, sw.b);
    engine_.block_maxpy(a.r().t_cur[0], a.r().t_prev[0], sw.b);
  }

  engine_.block_axpy(*c.x, a.p_cur, sw.alpha);

  // Next basis.  Degrees [0, recur) follow the recurrence S' = S - T alpha
  // (no SPMV); the rest is rebuilt by SPMVs from degree 0.  A replacement
  // (scheduled, verified-acceptance or gap-triggered) anchors degree 0 to
  // the truth b - A x (van der Vorst), resetting recurrence drift.
  const bool scheduled =
      v_.pipelined && a.replacement_period > 0 && a.outer > 0 &&
      a.outer % static_cast<std::size_t>(a.replacement_period) == 0;
  const bool replace = v_.recurred && (a.force_replace || scheduled);
  a.force_replace = false;
  const std::size_t recur =
      !v_.recurred || replace ? 0 : (v_.pipelined ? su + 1 : 1);
  for (std::size_t j = 0; j < recur; ++j)
    for (Side& sd : a.sides)
      engine_.block_combine(sd.basis_next[j], sd.basis[j], sd.t_cur[j],
                            sw.alpha);
  if (recur == 0) {
    if (replace) ++c.stats.replacements;
    anchor(c, /*next=*/true);
  }
  if (recur <= su) {
    const std::size_t from = std::max<std::size_t>(recur, 1);
    extend(a, /*next=*/true, from, su + 1 - from, /*fuse=*/v_.recurred);
  }

  if (v_.extra_flops_per_outer > 0.0) {
    const double n = static_cast<double>(engine_.global_size());
    engine_.charge(v_.extra_flops_per_outer * n,
                   v_.extra_flops_per_outer * n * 8.0);
  }

  // Gap check on due iterations: the true residual of the new iterate (one
  // SPMV, at most one PC), its norm dot riding the next batch.  Skipped
  // when degree 0 was just anchored to the truth (the comparison would be
  // vacuously zero and reset the ladder without measuring anything), so a
  // rebuilt-residual method never checks.
  a.gap_pending = c.gap.enabled() && recur != 0 &&
                  (a.outer + 1) % static_cast<std::size_t>(gap_period_) == 0;
  if (a.gap_pending) {
    engine_.apply_op(*c.x, scratch_);
    engine_.waxpy(c.gap_r, -1.0, scratch_, *c.b);
    if (gap_through_pc()) engine_.apply_pc(c.gap_r, c.gap_u);
  }

  for (Side& sd : a.sides) {
    std::swap(sd.basis, sd.basis_next);
    std::swap(sd.t_prev, sd.t_cur);
  }
  std::swap(a.p_prev, a.p_cur);
  c.iterations += su;
  ++a.outer;
}

}  // namespace

SStepSolver::SStepSolver(SStepVariant variant) : variant_(std::move(variant)) {}

SolveStats SStepSolver::solve(Engine& engine, const Vec& b, Vec& x,
                              const SolverOptions& opts) const {
  return std::move(
      solve_columns(engine, std::span<const Vec>(&b, 1),
                    std::span<Vec>(&x, 1), opts)
          .front());
}

std::vector<SolveStats> SStepSolver::solve_columns(
    Engine& engine, std::span<const Vec> bs, std::span<Vec> xs,
    const SolverOptions& opts) const {
  return Driver(variant_, engine, bs, xs, opts).run();
}

std::size_t max_batch_columns(int s) {
  const DotLayout layout{s, /*preconditioned=*/false};
  return par::Team::kMaxPayload / layout.total();
}

std::vector<SolveStats> scg_multi_solve(Engine& engine,
                                        std::span<const Vec> bs,
                                        std::span<Vec> xs,
                                        const SolverOptions& opts) {
  return SStepSolver(sstep_variant("scg-sspmv"))
      .solve_columns(engine, bs, xs, opts);
}

}  // namespace pipescg::krylov
