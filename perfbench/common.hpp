// Shared by the benchmark's programs: workload table, seeded inputs,
// command line, result line.  Uses only the service-level API and the
// sparse generators, so the end-to-end program keeps building when the
// layers underneath are refactored.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "pipescg/base/rng.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/service/session.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace perfbench {

// Every workload runs on two rank threads (the box has four cores), at the
// paper's depth s = 3 and rtol 1e-6 on the unpreconditioned residual norm,
// so the independent residual check compares directly with rtol.
inline constexpr int kRanks = 2;
inline constexpr int kS = 3;
inline constexpr double kRtol = 1e-6;

inline const char* const kPcg = "pcg";
inline const char* const kPipePscg = "pipe-pscg";
inline const char* const kBatchMethod = "scg-sspmv";

enum class Problem { kPoisson125, kThermal2 };

struct Workload {
  const char* name;
  Problem problem;
  std::size_t n;                 // grid points per dimension
  std::size_t batch;             // k batchable requests drained per round
  std::size_t setups_per_round;  // cold Session constructions timed
  bool observed;                 // wire tracing, alerts and metrics in
};

// poisson125_ooc: at n = 56 the stored CSR (16 B/nnz + row pointers) is
// 330.5 MB, above the 300 MiB (314.6 MB) L3 of the reference box, so every
// SPMV streams the matrix from DRAM.  thermal2_*: 40k unknowns whose CSR
// (6.0 MB) stays in cache, so vector work and reductions dominate.
//
// k = 6 is the stream of batchable scg-sspmv jobs examples/solver_service
// drains by default (--jobs 6).  On Poisson125 k = 2 is a time limit: at
// k = 6 a batch takes 11.2 s instead of 3.8 s, and a run of the minimum three
// rounds 71 s instead of 42 s.
//
// A cold set-up takes 1 s on Poisson125 and 10 ms on thermal2, so a round
// times one on the first and three on the second.
inline const Workload kWorkloads[] = {
    {"poisson125_ooc", Problem::kPoisson125, 56, 2, 1, false},
    {"thermal2_incache", Problem::kThermal2, 200, 6, 3, false},
    {"thermal2_observed", Problem::kThermal2, 200, 6, 3, true},
};

inline const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;  // span file (traced run) or request-trace directory
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--out") args.out = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (args.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  return args;
}

// The operator is part of the workload, not of the seed: the thermal2
// generator keeps its own fixed seed, because another jump-coefficient
// layout moves PCG's iteration count by up to 8% (620 to 724 on four
// layouts), which would measure the layout rather than the code.
inline pipescg::sparse::CsrMatrix make_matrix(const Workload& w) {
  if (w.problem == Problem::kPoisson125)
    return pipescg::sparse::make_poisson125_csr(w.n);
  return pipescg::sparse::make_thermal2_like(w.n, w.n);
}

/// One request's input: a seeded manufactured solution and b = A x*,
/// formed with the benchmark's own CSR loop.
struct Request {
  std::vector<double> xstar;
  std::vector<double> b;
};

/// x*_i = 1 + u_i with u_i uniform in [-0.5, 0.5], seeded by (seed, index).
/// The constant part sets the slow modes, so PCG and sCG-sSPMV need the
/// same iteration count within 0.3% whatever the seed; a zero-mean x*
/// makes PCG's count swing from 252 to 428.
inline Request make_request(const pipescg::sparse::CsrMatrix& a,
                            std::uint64_t seed, std::uint64_t index) {
  pipescg::Rng rng(seed * 1000003ull + index * 7777ull + 17ull);
  Request r;
  r.xstar.resize(a.rows());
  for (double& v : r.xstar) v = rng.uniform(0.5, 1.5);
  r.b = csr_multiply(a, r.xstar);
  return r;
}

inline pipescg::krylov::SolverOptions solver_options() {
  pipescg::krylov::SolverOptions opts;
  opts.rtol = kRtol;
  opts.s = kS;
  opts.norm = pipescg::krylov::NormType::kUnpreconditioned;
  return opts;
}

inline pipescg::service::SessionConfig session_config() {
  pipescg::service::SessionConfig config;
  config.ranks = kRanks;
  config.use_preconditioner = true;  // pcg and pipe-pscg use Jacobi
  config.s = kS;
  return config;
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The result line: exactly one JSON object, printed last on stdout.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  void print() const {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second.first);
      if (i > 0) line += ", ";
      line += "\"" + metrics[i].first + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics[i].second.second + "\"}";
    }
    line += "}}";
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
};

}  // namespace perfbench
