// End-to-end run: time-to-solution through the service layer.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <t> [--out <dir>]
//
// setup_s is the median of cold Session constructions: this process's own,
// and more after every measured round, each in a child forked from a helper
// that kept the state before any set-up (see ColdSetupSampler).  A warm-up
// round
// follows, untimed; it also solves the k batch requests alone, and those
// solo scg-sspmv iterates are the references every batched column must
// equal bit for bit.  The pcg and pipe-pscg requests get a fresh
// right-hand side every round and are checked against their manufactured
// solutions only.  Measured rounds then interleave the three request kinds
// round-robin (pcg, pipe-pscg, a drained batch of k scg-sspmv requests)
// until --seconds have passed since the process started, and each metric
// is the median over rounds.  On the observed workload per-request traces
// go to --out and are deleted after each round.
//
// Only the service-level API is used here: a refactor of krylov::Engine or
// the s-step drivers cannot stop this program from building.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <memory>
#include <tuple>

#include "common.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/tracing.hpp"
#include "pipescg/service/queue.hpp"

using namespace pipescg;
using perfbench::Request;

namespace {

// A run times at least this many rounds, even past --seconds, so no median
// rests on a single sample.
constexpr std::size_t kMinRounds = 3;

struct Checker {
  const sparse::CsrMatrix& a;
  perfbench::Result& result;

  // Why a finished request fails, or "" if it passes: converged, true
  // residual within rtol (with the stated slack), and -- when a reference
  // exists -- bitwise equal to it.
  std::string verdict(const service::SolveContext& ctx, const Request& req,
                      const std::vector<double>* reference) const {
    if (ctx.state() != service::JobState::kDone || !ctx.converged())
      return std::string("did not converge (") +
             service::to_string(ctx.state()) + ") " + ctx.error();
    const double rel = perfbench::relative_residual(a, req.b, ctx.x());
    if (!perfbench::residual_ok(rel, perfbench::kRtol))
      return "true residual " + std::to_string(rel) + " above bound";
    if (reference != nullptr && !perfbench::bitwise_equal(ctx.x(), *reference))
      return "iterate differs from its reference solve";
    return {};
  }

  // Counts one request; a non-empty `why` fails it whatever its answer.
  void check(const service::SolveContext& ctx, const Request& req,
             const std::vector<double>* reference, const char* what,
             std::string why = {}) {
    ++result.attempted;
    if (why.empty()) why = verdict(ctx, req, reference);
    if (!why.empty()) {
      ++result.failed;
      result.correct = false;
      std::fprintf(stderr, "perfbench: %s request failed: %s\n", what,
                   why.c_str());
    }
  }
};

void reap(pid_t pid, int* status) {
  while (waitpid(pid, status, 0) < 0 && errno == EINTR) {
  }
}

// Times cold Session constructions throughout the run.  A helper process is
// forked before this process starts a thread or builds a Session, and keeps
// that state: for each sample it forks a child that builds one Session from
// its copy-on-write image of the matrix, reports the seconds and exits.  So
// every sample starts with no rank thread alive and no heap left over from
// an earlier set-up (a second construction in one process would reuse the
// freed heap and measure a warm set-up), and the samples are spread over
// the run, where they meet the same fast and slow phases of the host as the
// solves do.  Fifteen back-to-back samples at the start of each run gave
// medians from 8.0 to 12.8 ms over ten runs on thermal2 (quartile spread
// 0.31 of the median); spread over the rounds, 0.11.
class ColdSetupSampler {
 public:
  explicit ColdSetupSampler(sparse::CsrMatrix& matrix) {
    int cmd[2], res[2];
    if (pipe(cmd) != 0) throw std::runtime_error("pipe failed");
    if (pipe(res) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    helper_ = fork();
    if (helper_ < 0) throw std::runtime_error("fork failed");
    if (helper_ == 0) {
      close(cmd[1]);
      close(res[0]);
      serve(matrix, cmd[0], res[1]);
    }
    close(cmd[0]);
    close(res[1]);
    cmd_ = cmd[1];
    res_ = res[0];
  }
  ColdSetupSampler(const ColdSetupSampler&) = delete;
  ColdSetupSampler& operator=(const ColdSetupSampler&) = delete;

  // Closing the command pipe ends the helper.
  ~ColdSetupSampler() {
    close(cmd_);
    close(res_);
    int status = 0;
    reap(helper_, &status);
  }

  double sample() {
    const char go = 1;
    double seconds = -1.0;
    if (write(cmd_, &go, 1) != 1 ||
        read(res_, &seconds, sizeof seconds) !=
            static_cast<ssize_t>(sizeof seconds) ||
        seconds < 0.0)
      throw std::runtime_error("cold Session construction failed");
    return seconds;
  }

 private:
  // The helper: one timed construction per command byte, until EOF.
  [[noreturn]] static void serve(sparse::CsrMatrix& matrix, int cmd, int res) {
    char go = 0;
    while (read(cmd, &go, 1) == 1) {
      const pid_t child = fork();
      if (child == 0) {
        try {
          const auto t0 = std::chrono::steady_clock::now();
          service::Session session(std::move(matrix),
                                   perfbench::session_config());
          const double seconds = perfbench::seconds_since(t0);
          if (write(res, &seconds, sizeof seconds) ==
              static_cast<ssize_t>(sizeof seconds))
            _exit(0);
        } catch (...) {
        }
        _exit(1);
      }
      int status = 0;
      if (child > 0) reap(child, &status);
      if (child < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        const double failed = -1.0;
        if (write(res, &failed, sizeof failed) !=
            static_cast<ssize_t>(sizeof failed))
          break;
      }
    }
    _exit(0);
  }

  pid_t helper_ = -1;
  int cmd_ = -1;
  int res_ = -1;
};

void remove_traces(const obs::tracing::TraceSink* traces) {
  if (traces == nullptr) return;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(traces->dir(), ec))
    std::filesystem::remove(entry.path(), ec);
}

int run(const perfbench::Args& args) {
  const perfbench::Workload& w = perfbench::find_workload(args.workload);
  if (w.observed && args.out.empty())
    throw std::invalid_argument("the observed workload needs --out <dir>");

  const auto process_start = std::chrono::steady_clock::now();
  // Input preparation (not timed): the operator and the k batch requests.
  sparse::CsrMatrix matrix = perfbench::make_matrix(w);
  std::vector<Request> batch_requests;
  for (std::size_t j = 0; j < w.batch; ++j)
    batch_requests.push_back(perfbench::make_request(matrix, args.seed, j));

  // Cold set-ups (partition, per-rank DistCsr, Jacobi, team spawn): this
  // process's own, then w.setups_per_round more after every measured round.
  ColdSetupSampler cold_setups(matrix);
  const auto setup_start = std::chrono::steady_clock::now();
  auto session = std::make_unique<service::Session>(
      std::move(matrix), perfbench::session_config());
  std::vector<double> setup_samples{perfbench::seconds_since(setup_start)};
  const sparse::CsrMatrix& a = session->matrix();

  std::unique_ptr<obs::tracing::TraceSink> traces;
  std::unique_ptr<obs::anomaly::AlertSink> alerts;
  obs::metrics::Registry registry;
  if (w.observed) {
    traces = std::make_unique<obs::tracing::TraceSink>(args.out);
    alerts = std::make_unique<obs::anomaly::AlertSink>(args.out +
                                                       "/alerts.jsonl");
    service::Observability o;
    o.traces = traces.get();
    o.alerts = alerts.get();
    o.registry = &registry;
    session->set_observability(o);
  }

  const krylov::SolverOptions opts = perfbench::solver_options();
  perfbench::Result result;
  Checker checker{a, result};

  auto solve = [&](const char* method, const Request& req) {
    auto ctx = std::make_unique<service::SolveContext>(method, req.b, opts);
    session->solve(*ctx);
    return ctx;
  };
  // Drains the k batch requests through the admission queue; returns the
  // drained contexts, the wall seconds from first submit to empty queue and
  // why the k requests did not leave the queue as one batch ("" if they did).
  auto drain_batch = [&]() {
    std::vector<std::unique_ptr<service::SolveContext>> ctxs;
    for (const Request& req : batch_requests)
      ctxs.push_back(std::make_unique<service::SolveContext>(
          perfbench::kBatchMethod, req.b, opts));
    const auto t0 = std::chrono::steady_clock::now();
    service::AdmissionQueue queue;
    for (auto& ctx : ctxs) queue.submit(ctx.get());
    session->drain(queue, w.batch);
    const double seconds = perfbench::seconds_since(t0);
    return std::make_tuple(std::move(ctxs), seconds,
                           perfbench::one_batch_violation(
                               queue.batches(), queue.admitted(), w.batch));
  };
  const char* const methods[] = {perfbench::kPcg, perfbench::kPipePscg};
  // Single requests get a fresh right-hand side every round (index k + 2r
  // for pcg, k + 2r + 1 for pipe-pscg), so a run's median spans as many
  // inputs as it has rounds.
  auto single_request = [&](std::size_t round, std::size_t j) {
    return perfbench::make_request(a, args.seed, w.batch + 2 * round + j);
  };

  // --- warm-up ------------------------------------------------------------
  // The first solves of a fresh session run up to 2x slower, so one round
  // goes untimed.  The batch requests are solved alone here: those iterates
  // are what every batched column must equal bit for bit.
  std::size_t round = 0;
  for (std::size_t j = 0; j < 2; ++j) {
    const Request req = single_request(round, j);
    auto ctx = solve(methods[j], req);
    checker.check(*ctx, req, nullptr, methods[j]);
  }
  std::vector<std::vector<double>> solo(w.batch);
  for (std::size_t j = 0; j < w.batch; ++j) {
    auto ctx = solve(perfbench::kBatchMethod, batch_requests[j]);
    checker.check(*ctx, batch_requests[j], nullptr, "solo scg-sspmv");
    solo[j] = ctx->x();
  }
  remove_traces(traces.get());
  ++round;

  // --- measured rounds ----------------------------------------------------
  std::vector<double> pcg_s, pipe_s, batch_rate;
  for (; pcg_s.size() < kMinRounds ||
         perfbench::seconds_since(process_start) < args.seconds;
       ++round) {
    for (std::size_t j = 0; j < 2; ++j) {
      const Request req = single_request(round, j);
      const auto t0 = std::chrono::steady_clock::now();
      auto ctx = solve(methods[j], req);
      (j == 0 ? pcg_s : pipe_s).push_back(perfbench::seconds_since(t0));
      checker.check(*ctx, req, nullptr, methods[j]);
    }
    auto [ctxs, seconds, not_one_batch] = drain_batch();
    batch_rate.push_back(static_cast<double>(w.batch) / seconds);
    for (std::size_t j = 0; j < w.batch; ++j)
      checker.check(*ctxs[j], batch_requests[j], &solo[j],
                    "batched scg-sspmv", not_one_batch);
    remove_traces(traces.get());
    for (std::size_t j = 0; j < w.setups_per_round; ++j)
      setup_samples.push_back(cold_setups.sample());
  }
  const double setup_s = perfbench::median(setup_samples);

  std::fprintf(stderr,
               "perfbench: %s seed=%llu %zu unknowns, %zu rounds, "
               "setup %.4fs (median of %zu, %.4f-%.4f, own %.4f)\n",
               w.name, static_cast<unsigned long long>(args.seed), a.rows(),
               pcg_s.size(), setup_s, setup_samples.size(),
               *std::min_element(setup_samples.begin(), setup_samples.end()),
               *std::max_element(setup_samples.begin(), setup_samples.end()),
               setup_samples.front());
  result.add("setup_s", setup_s, "s");
  result.add("pcg_solve_s", perfbench::median(pcg_s), "s");
  result.add("pipe_pscg_solve_s", perfbench::median(pipe_s), "s");
  result.add("batch_solves_per_s", perfbench::median(batch_rate), "1/s");
  result.add("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
  result.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
}
