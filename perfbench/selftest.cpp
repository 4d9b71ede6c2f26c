// Shows that each correctness check of the benchmark rejects a broken
// input: a perturbed iterate, a doubled allreduce count, a doubled SPMV
// count, a swapped batch column and a batch drained one request at a time.  Exits 0 only if every check accepts
// the genuine input and rejects every broken one.
//
//   perfbench_selftest
#include <cstdio>
#include <utility>

#include "common.hpp"
#include "pipescg/service/queue.hpp"

using namespace pipescg;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  // A small thermal2 operator served like the benchmark's (2 ranks, s=3).
  const perfbench::Workload w{"selftest", perfbench::Problem::kThermal2, 24, 2,
                              0, false};
  service::Session session(perfbench::make_matrix(w),
                           perfbench::session_config());
  const sparse::CsrMatrix& a = session.matrix();
  const krylov::SolverOptions opts = perfbench::solver_options();

  // Independent residual.
  const perfbench::Request req = perfbench::make_request(a, 7, 0);
  service::SolveContext ctx(perfbench::kPipePscg, req.b, opts);
  session.solve(ctx);
  const double rel = perfbench::relative_residual(a, req.b, ctx.x());
  expect(perfbench::residual_ok(rel, perfbench::kRtol),
         "converged pipe-pscg iterate passes the residual check");
  std::vector<double> perturbed = ctx.x();
  for (double& v : perturbed) v *= 1.0 + 1e-4;
  expect(!perfbench::residual_ok(
             perfbench::relative_residual(a, req.b, perturbed),
             perfbench::kRtol),
         "iterate scaled by 1+1e-4 fails the residual check");
  expect(!perfbench::residual_ok(
             perfbench::relative_residual(a, req.b,
                                          std::vector<double>(a.rows(), 0.0)),
             perfbench::kRtol),
         "zero iterate fails the residual check");
  perturbed = ctx.x();
  perturbed[a.rows() / 2] = std::nextafter(perturbed[a.rows() / 2], 1e300);
  expect(!perfbench::bitwise_equal(ctx.x(), perturbed),
         "iterate one ulp off fails the bitwise check");

  // Table-I counts (the figures the traced run measured on thermal2).
  const perfbench::CallCounts pipe{819, 895, 895, 276};
  expect(perfbench::table1_violation("pipe-pscg", 3, pipe).empty(),
         "pipe-pscg: 276 allreduces in 819 iterations at s=3 pass");
  perfbench::CallCounts doubled = pipe;
  doubled.allreduce *= 2;
  expect(!perfbench::table1_violation("pipe-pscg", 3, doubled).empty(),
         "pipe-pscg: doubled allreduce count fails");
  const perfbench::CallCounts pcg{659, 660, 660, 1980};
  expect(perfbench::table1_violation("pcg", 3, pcg).empty(),
         "pcg: 660 SPMVs and PCs in 659 iterations pass");
  perfbench::CallCounts pcg_bad = pcg;
  pcg_bad.apply_op *= 2;
  expect(!perfbench::table1_violation("pcg", 3, pcg_bad).empty(),
         "pcg: doubled SPMV count fails");
  pcg_bad = pcg;
  pcg_bad.apply_pc = 0;
  expect(!perfbench::table1_violation("pcg", 3, pcg_bad).empty(),
         "pcg: missing PC applications fail");

  // Batched columns against their solo solves.
  std::vector<perfbench::Request> reqs;
  std::vector<std::vector<double>> solo;
  for (std::uint64_t j = 0; j < 2; ++j) {
    reqs.push_back(perfbench::make_request(a, 7, 10 + j));
    service::SolveContext one(perfbench::kBatchMethod, reqs[j].b, opts);
    session.solve(one);
    solo.push_back(one.x());
  }
  service::SolveContext c0(perfbench::kBatchMethod, reqs[0].b, opts);
  service::SolveContext c1(perfbench::kBatchMethod, reqs[1].b, opts);
  service::AdmissionQueue queue;
  queue.submit(&c0);
  queue.submit(&c1);
  session.drain(queue, 2);
  expect(perfbench::one_batch_violation(queue.batches(), queue.admitted(), 2)
             .empty(),
         "the two requests drain as one batch");
  expect(perfbench::bitwise_equal(c0.x(), solo[0]) &&
             perfbench::bitwise_equal(c1.x(), solo[1]),
         "batched columns equal their solo solves");
  expect(!perfbench::bitwise_equal(c1.x(), solo[0]) &&
             !perfbench::bitwise_equal(c0.x(), solo[1]),
         "swapped batch columns fail the bitwise check");
  service::SolveContext d0(perfbench::kBatchMethod, reqs[0].b, opts);
  service::SolveContext d1(perfbench::kBatchMethod, reqs[1].b, opts);
  service::AdmissionQueue one_at_a_time;
  one_at_a_time.submit(&d0);
  one_at_a_time.submit(&d1);
  session.drain(one_at_a_time, 1);
  expect(!perfbench::one_batch_violation(one_at_a_time.batches(),
                                         one_at_a_time.admitted(), 2)
              .empty(),
         "requests drained one at a time fail the one-batch check");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
