#include "pipescg/service/queue.hpp"

#include <algorithm>
#include <tuple>

namespace pipescg::service {
namespace {

// Every SolverOptions field a solve reads.  `monitor` is the caller's
// callback, not part of the convergence contract.
auto contract(const krylov::SolverOptions& o) {
  return std::tie(o.rtol, o.atol, o.max_iterations, o.s, o.norm, o.basis,
                  o.detect_stagnation, o.stall_improvement, o.stall_window,
                  o.replacement_period, o.gap_tol, o.gap_check_period,
                  o.compute_true_residual, o.fuse_cg_dots,
                  o.estimate_spectrum, o.recovery, o.max_recoveries);
}

}  // namespace

bool batchable(const SolveContext& a, const SolveContext& b) {
  // Only scg-sspmv has a batched entry point (krylov::scg_multi_solve); a
  // step limit makes iteration budgets diverge mid-batch, so limited jobs
  // run singly.  The batch runs with the first job's options, so every
  // option must match or a later job's would be silently replaced.
  if (a.method() != "scg-sspmv" || b.method() != "scg-sspmv") return false;
  if (a.step_limit() != 0 || b.step_limit() != 0) return false;
  return contract(a.options()) == contract(b.options());
}

void AdmissionQueue::submit(SolveContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  ctx->state_ = JobState::kQueued;
  ctx->enqueued_at_ = std::chrono::steady_clock::now();
  queue_.push_back(ctx);
  ++admitted_;
}

std::size_t AdmissionQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<SolveContext*> AdmissionQueue::next_batch(std::size_t max_batch) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SolveContext*> out;
  if (queue_.empty()) return out;
  out.push_back(queue_.front());
  queue_.pop_front();
  // Longest batchable PREFIX only: grouping never lets a job overtake an
  // incompatible earlier arrival.
  while (out.size() < std::max<std::size_t>(max_batch, 1) &&
         !queue_.empty() && batchable(*out.front(), *queue_.front())) {
    out.push_back(queue_.front());
    queue_.pop_front();
  }
  if (out.size() > 1) ++batches_;
  return out;
}

std::size_t AdmissionQueue::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

std::size_t AdmissionQueue::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

}  // namespace pipescg::service
