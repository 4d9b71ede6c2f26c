// Traced run: where each second of a solve goes, layer by layer.
//
//   perfbench_trace --workload <name> --seed <n> --seconds <t> --out <file>
//
// The same requests as the end-to-end run are solved three ways per round:
// through service::Session (the user's path), through the same lower layers
// driven directly (Partition, DistCsr, Jacobi, PersistentTeam, SpmdEngine),
// and through those layers with SpmdEngine wrapped in TimingEngine, a
// decorator that times every apply_op / apply_op_powers, apply_pc,
// dot_post and dot_wait and books the gaps between them as local vector and
// scalar work.  The traced solve must reach the session's iteration count
// and a bitwise-identical iterate, and its kernel counts must match the
// paper's Table I.  Standalone loops time DistCsr::apply, a triad,
// Comm::allreduce_sum, la::dot_batch / axpy_pair and the set-up
// constructors.  Spans (request id, parent) stay in memory and are written
// once, as a Chrome trace, to --out.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/la/vector_kernels.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/tracing.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/partition.hpp"

using namespace pipescg;
using Clock = std::chrono::steady_clock;
using perfbench::Request;

namespace {

enum Layer { kSpmv, kPc, kPost, kWait, kLocal, kLayers };
const char* const kLayerNames[kLayers] = {"spmv", "pc", "allreduce_post",
                                          "allreduce_wait", "local"};

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  double start;
  double end;
};

// Spans of one track; each rank thread owns one, so recording never locks.
struct Track {
  std::vector<Span> spans;
  std::uint64_t next_id = 0;
  int index = 0;  // rank, or -1 for the main thread
  std::uint64_t mint() {
    return (static_cast<std::uint64_t>(index + 2) << 32) | ++next_id;
  }
};

double since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double>(t - epoch).count();
}

struct LayerTotals {
  double seconds[kLayers] = {};
  std::size_t calls[kLayers] = {};
};

/// Engine decorator: forwards every virtual to `inner` and times it.  The
/// BLAS-1 and block kernels are Engine's own non-virtual code and run here
/// unchanged, so the iterate is bitwise that of an undecorated solve; each
/// of them reports through record_compute, which counts local calls.
class TimingEngine final : public krylov::Engine {
 public:
  TimingEngine(krylov::Engine& inner, Track& track, Clock::time_point epoch,
               std::uint64_t request, std::uint64_t parent)
      : inner_(inner), track_(track), epoch_(epoch), request_(request),
        parent_(parent), last_(Clock::now()) {}

  std::size_t local_size() const override { return inner_.local_size(); }
  std::size_t global_size() const override { return inner_.global_size(); }
  bool has_preconditioner() const override {
    return inner_.has_preconditioner();
  }
  bool has_matrix_powers() const override {
    return inner_.has_matrix_powers();
  }

  void apply_op(const krylov::Vec& x, krylov::Vec& y) override {
    const auto t0 = begin();
    inner_.apply_op(x, y);
    end(kSpmv, t0, 1);
  }
  void apply_op_powers(const krylov::Vec& x,
                       std::span<krylov::Vec> outs) override {
    const auto t0 = begin();
    inner_.apply_op_powers(x, outs);
    end(kSpmv, t0, outs.size());
  }
  void apply_pc(const krylov::Vec& r, krylov::Vec& u) override {
    const auto t0 = begin();
    inner_.apply_pc(r, u);
    end(kPc, t0, 1);
  }
  krylov::DotHandle dot_post(std::span<const krylov::DotPair> pairs,
                             bool blocking) override {
    const auto t0 = begin();
    krylov::DotHandle h = inner_.dot_post(pairs, blocking);
    end(kPost, t0, 1);
    return h;
  }
  void dot_wait(krylov::DotHandle& handle, std::span<double> out) override {
    const auto t0 = begin();
    inner_.dot_wait(handle, out);
    end(kWait, t0, 1);
  }
  void mark_iteration(std::uint64_t iter, double rnorm) override {
    inner_.mark_iteration(iter, rnorm);
  }

  /// Closes the trailing local gap; call right after the solver returns.
  LayerTotals finish() {
    begin();
    return totals_;
  }

 protected:
  void record_compute(double, double) override { ++totals_.calls[kLocal]; }
  double global_scale() const override {
    return static_cast<double>(global_size()) /
           static_cast<double>(std::max<std::size_t>(local_size(), 1));
  }

 private:
  // Everything since the previous kernel call ended is local work.
  Clock::time_point begin() {
    const auto now = Clock::now();
    if (now > last_) {
      totals_.seconds[kLocal] += since(last_, now);
      record(kLocal, last_, now);
    }
    return now;
  }
  void end(Layer layer, Clock::time_point t0, std::size_t count) {
    last_ = Clock::now();
    totals_.seconds[layer] += since(t0, last_);
    totals_.calls[layer] += count;
    record(layer, t0, last_);
  }
  void record(Layer layer, Clock::time_point t0, Clock::time_point t1) {
    track_.spans.push_back({kLayerNames[layer], track_.mint(), parent_,
                            request_, since(epoch_, t0), since(epoch_, t1)});
  }

  krylov::Engine& inner_;
  Track& track_;
  Clock::time_point epoch_;
  std::uint64_t request_;
  std::uint64_t parent_;
  Clock::time_point last_;
  LayerTotals totals_;
};

enum Kind { kPcgKind, kPipeKind, kBatchKind, kKinds };
const char* const kKindNames[kKinds] = {"pcg", "pipe_pscg", "batch"};

/// The Session's cached state, rebuilt from the lower layers so a solve can
/// run with a decorated engine.
class DirectSolver {
 public:
  DirectSolver(const sparse::CsrMatrix& a, Track& main_track,
               Clock::time_point epoch)
      : a_(a), partition_(a.rows(), perfbench::kRanks), epoch_(epoch) {
    auto t0 = Clock::now();
    for (int r = 0; r < perfbench::kRanks; ++r)
      dist_.push_back(std::make_unique<sparse::DistCsr>(a, partition_, r));
    dist_build_s = record(main_track, "setup.dist_csr", t0);

    t0 = Clock::now();
    const std::vector<double> diag = a.diagonal();
    for (int r = 0; r < perfbench::kRanks; ++r)
      pc_.push_back(std::make_unique<precond::JacobiPreconditioner>(
          std::vector<double>(
              diag.begin() + static_cast<std::ptrdiff_t>(partition_.begin(r)),
              diag.begin() + static_cast<std::ptrdiff_t>(partition_.end(r))),
          a.stats()));
    pc_build_s = record(main_track, "setup.jacobi", t0);

    t0 = Clock::now();
    team_ = std::make_unique<par::PersistentTeam>(perfbench::kRanks);
    team_spawn_s = record(main_track, "setup.team_spawn", t0);
    for (int r = 0; r < perfbench::kRanks; ++r) tracks_[r].index = r;
  }

  /// Solves the requests (one, or a batch through scg_multi_solve) from a
  /// zero initial guess.  With `traced` the SpmdEngine is wrapped in a
  /// TimingEngine and per-rank totals land in `totals`.
  struct Outcome {
    std::vector<std::vector<double>> x;
    std::vector<krylov::SolveStats> stats;
    LayerTotals totals[perfbench::kRanks];
    double wall = 0.0;
  };
  Outcome solve(const std::string& method,
                const std::vector<const Request*>& requests, bool traced,
                std::uint64_t request_id) {
    const krylov::SolverOptions opts = perfbench::solver_options();
    const std::size_t k = requests.size();
    Outcome out;
    out.x.assign(k, std::vector<double>(a_.rows(), 0.0));
    out.stats.resize(k);
    const auto t0 = Clock::now();
    team_->run([&](par::Comm& comm) {
      const int rank = comm.rank();
      const bool use_pc = krylov::solver_uses_preconditioner(method);
      krylov::SpmdEngine spmd(comm, *dist_[rank],
                              use_pc ? pc_[rank].get() : nullptr);
      const std::size_t begin = partition_.begin(rank);
      const std::size_t len = partition_.local_size(rank);
      std::vector<krylov::Vec> bs, xs;
      for (const Request* req : requests) {
        krylov::Vec b = spmd.new_vec();
        for (std::size_t i = 0; i < len; ++i) b[i] = req->b[begin + i];
        bs.push_back(std::move(b));
        xs.push_back(spmd.new_vec());
      }
      Track& track = tracks_[rank];
      const std::uint64_t root = track.mint();
      const auto s0 = Clock::now();
      std::optional<TimingEngine> timing;
      if (traced) timing.emplace(spmd, track, epoch_, request_id, root);
      krylov::Engine& engine =
          timing ? static_cast<krylov::Engine&>(*timing) : spmd;
      std::vector<krylov::SolveStats> stats;
      if (k == 1)
        stats.push_back(krylov::make_solver(method)->solve(engine, bs[0],
                                                           xs[0], opts));
      else
        stats = krylov::scg_multi_solve(engine, bs, xs, opts);
      if (timing) {
        out.totals[rank] = timing->finish();
        track.spans.push_back({"solve", root, 0, request_id,
                               since(epoch_, s0), since(epoch_, Clock::now())});
      }
      for (std::size_t c = 0; c < k; ++c)
        for (std::size_t i = 0; i < len; ++i) out.x[c][begin + i] = xs[c][i];
      if (rank == 0) out.stats = std::move(stats);
    });
    out.wall = std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
  }

  /// Seconds per DistCsr::apply (both ranks at once) over a loop of at
  /// least `budget` seconds; bytes are the computed bytes_per_apply().
  double spmv_seconds(double budget, Track& main_track) {
    const auto loop = [&](std::size_t reps) {
      const auto t0 = Clock::now();
      team_->run([&](par::Comm& comm) {
        const sparse::DistCsr& d = *dist_[comm.rank()];
        std::vector<double> x(d.local_rows(), 1.0), y(d.local_rows());
        std::vector<double> ghosts;
        for (std::size_t i = 0; i < reps; ++i) d.apply(comm, x, y, ghosts);
      });
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    const double one = loop(1);
    const std::size_t reps =
        std::max<std::size_t>(3, static_cast<std::size_t>(budget / one));
    const auto t0 = Clock::now();
    const double seconds = loop(reps) / static_cast<double>(reps);
    record(main_track, "standalone.spmv", t0);
    return seconds;
  }

  std::size_t spmv_bytes() const {
    std::size_t bytes = 0;
    for (const auto& d : dist_) bytes += d->bytes_per_apply();
    return bytes;
  }

  /// Microseconds per blocking Comm::allreduce_sum of a PIPE-PsCG-sized
  /// payload (2s+1 moments plus the s x s cross block).
  double allreduce_us(std::size_t reps, Track& main_track) {
    const std::size_t payload = 2 * perfbench::kS + 1 +
                                perfbench::kS * perfbench::kS;
    const auto t0 = Clock::now();
    team_->run([&](par::Comm& comm) {
      std::vector<double> in(payload, 1.0), out(payload);
      for (std::size_t i = 0; i < reps; ++i) comm.allreduce_sum(in, out);
    });
    const double s = record(main_track, "standalone.allreduce", t0);
    return 1e6 * s / static_cast<double>(reps);
  }

  std::size_t local_rows() const { return partition_.local_size(0); }
  Track* tracks() { return tracks_; }

  double dist_build_s = 0.0;
  double pc_build_s = 0.0;
  double team_spawn_s = 0.0;

 private:
  double record(Track& track, const char* name, Clock::time_point t0) {
    const auto t1 = Clock::now();
    track.spans.push_back({name, track.mint(), 0, 0, since(epoch_, t0),
                           since(epoch_, t1)});
    return since(t0, t1);
  }

  const sparse::CsrMatrix& a_;
  sparse::Partition partition_;
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<sparse::DistCsr>> dist_;
  std::vector<std::unique_ptr<precond::JacobiPreconditioner>> pc_;
  Track tracks_[perfbench::kRanks];
  // Last: its rank threads use everything above.
  std::unique_ptr<par::PersistentTeam> team_;
};

/// Sustainable memory bandwidth: a[i] = b[i] + 3 c[i] on one thread per
/// rank, 3 x 64 MiB per thread (384 MiB in all, above the 300 MiB L3).
/// Bytes counted: 24 per element (two reads, one write).
double triad_gbs() {
  constexpr std::size_t n = std::size_t{8} << 20;
  constexpr int sweeps = 6;
  std::vector<double> best(perfbench::kRanks, 1e300);
  std::vector<std::thread> threads;
  for (int t = 0; t < perfbench::kRanks; ++t)
    threads.emplace_back([&best, t] {
      std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
      for (int s = 0; s < sweeps; ++s) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
        best[t] = std::min(best[t], since(t0, Clock::now()));
        b[s % n] = a[(s * 7) % n];  // keep the sweeps live
      }
    });
  for (std::thread& th : threads) th.join();
  double gbs = 0.0;
  for (double s : best) gbs += 24.0 * n / s / 1e9;
  return gbs;
}

/// GB/s of la::dot_batch (4 pairs of distinct vectors, 8 vectors read) and
/// la::axpy_pair (3 read, 1 written) at the solver's local vector length,
/// single-threaded; computed bytes.
std::pair<double, double> la_gbs(std::size_t n) {
  std::vector<std::vector<double>> v(8, std::vector<double>(n, 1.0));
  std::vector<la::DotView> pairs;
  for (int p = 0; p < 4; ++p)
    pairs.push_back({v[2 * p].data(), v[2 * p + 1].data()});
  std::vector<double> out(4);
  const std::size_t reps =
      std::max<std::size_t>(20, (std::size_t{1} << 26) / n);
  std::vector<double> dot_s, axpy_s;
  for (int trial = 0; trial < 5; ++trial) {
    auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      la::dot_batch(pairs, n, out);
      v[0][r % n] += out[0] * 1e-300;
    }
    dot_s.push_back(since(t0, Clock::now()) / static_cast<double>(reps));
    t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r)
      la::axpy_pair(v[0].data(), 1e-9, v[1].data(), -1e-9, v[2].data(), n);
    axpy_s.push_back(since(t0, Clock::now()) / static_cast<double>(reps));
  }
  return {64.0 * n / perfbench::median(dot_s) / 1e9,
          32.0 * n / perfbench::median(axpy_s) / 1e9};
}

void write_spans(const std::string& path, const std::vector<Track*>& tracks) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  os << "{\"traceEvents\": [";
  bool first = true;
  char buf[320];
  for (const Track* track : tracks)
    for (const Span& s : track->spans) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"span_id\": %llu, \"parent_span_id\": %llu, "
                    "\"request\": %llu}}",
                    first ? "" : ",", s.name, track->index + 1, 1e6 * s.start,
                    1e6 * (s.end - s.start),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      os << buf;
      first = false;
    }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write span file " + path);
}

std::size_t file_bytes_and_remove(const std::string& dir) {
  std::size_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") bytes += entry.file_size(ec);
    std::filesystem::remove(entry.path(), ec);
  }
  return bytes;
}

int run(const perfbench::Args& args) {
  const auto process_start = Clock::now();
  const perfbench::Workload& w = perfbench::find_workload(args.workload);
  if (args.out.empty()) throw std::invalid_argument("--out <file> is required");
  Track main_track;
  main_track.index = -1;

  // The triad runs first, before the operator is built, so its 384 MiB
  // never coexist with the matrices.
  const double triad = triad_gbs();

  sparse::CsrMatrix matrix = perfbench::make_matrix(w);
  std::vector<Request> batch_requests;
  for (std::size_t j = 0; j < w.batch; ++j)
    batch_requests.push_back(perfbench::make_request(matrix, args.seed, j));

  auto t0 = Clock::now();
  service::Session session(std::move(matrix), perfbench::session_config());
  main_track.spans.push_back({"setup.session", main_track.mint(), 0, 0,
                              since(process_start, t0),
                              since(process_start, Clock::now())});
  const sparse::CsrMatrix& a = session.matrix();
  DirectSolver direct(a, main_track, process_start);

  const std::string trace_dir = args.out + ".requests";
  obs::tracing::TraceSink traces(trace_dir);
  obs::anomaly::AlertSink alerts;
  obs::metrics::Registry registry;
  service::Observability observed;
  observed.traces = &traces;
  observed.alerts = &alerts;
  observed.registry = &registry;

  perfbench::Result result;
  const krylov::SolverOptions opts = perfbench::solver_options();
  auto fail = [&](const std::string& why) {
    ++result.failed;
    result.correct = false;
    std::fprintf(stderr, "perfbench_trace: %s\n", why.c_str());
  };

  // Per kind, per round: medians are taken at the end.
  std::map<std::string, std::vector<double>> samples;
  auto sample = [&](const std::string& name, double v) {
    samples[name].push_back(v);
  };
  std::size_t stall_alerts = 0, straggler_alerts = 0, observed_requests = 0;
  std::size_t trace_bytes = 0, batch_width_num = 0, batch_width_den = 0;
  double traced_sum = 0.0, untraced_sum = 0.0, min_share = 1.0;
  std::uint64_t request_id = 0;

  const char* const methods[kKinds] = {perfbench::kPcg, perfbench::kPipePscg,
                                       perfbench::kBatchMethod};
  for (std::size_t round = 0;
       round == 0 || perfbench::seconds_since(process_start) < args.seconds;
       ++round) {
    for (int kind = 0; kind < kKinds; ++kind) {
      const std::string method = methods[kind];
      const std::string suffix = std::string(".") + kKindNames[kind];
      // Requests of this round: the batch, or one fresh single request.
      std::vector<Request> singles;
      std::vector<const Request*> reqs;
      if (kind == kBatchKind) {
        for (const Request& r : batch_requests) reqs.push_back(&r);
      } else {
        const std::size_t index =
            w.batch + 2 * round + static_cast<std::size_t>(kind);
        singles.push_back(perfbench::make_request(a, args.seed, index));
        reqs.push_back(&singles[0]);
      }
      ++request_id;

      // 1. The user's path: Session::solve, or a drained batch.
      std::vector<std::unique_ptr<service::SolveContext>> ctxs;
      for (const Request* r : reqs)
        ctxs.push_back(
            std::make_unique<service::SolveContext>(method, r->b, opts));
      t0 = Clock::now();
      if (kind == kBatchKind) {
        service::AdmissionQueue queue;
        for (auto& c : ctxs) queue.submit(c.get());
        session.drain(queue, w.batch);
        batch_width_num += queue.admitted();
        batch_width_den += queue.batches();
      } else {
        session.solve(*ctxs[0]);
      }
      const double session_s = perfbench::seconds_since(t0);

      // 2. Same layers, undecorated; 3. decorated.
      const DirectSolver::Outcome plain =
          direct.solve(method, reqs, false, request_id);
      const DirectSolver::Outcome traced =
          direct.solve(method, reqs, true, request_id);
      untraced_sum += plain.wall;
      traced_sum += traced.wall;
      if (kind != kBatchKind)
        sample("service.solve_overhead_s" + suffix, session_s - plain.wall);

      // Checks: session == traced (iterations and bits), true residual,
      // Table-I counts on every rank.
      for (std::size_t c = 0; c < reqs.size(); ++c) {
        ++result.attempted;
        const service::SolveContext& ctx = *ctxs[c];
        const double rel =
            perfbench::relative_residual(a, reqs[c]->b, traced.x[c]);
        if (ctx.state() != service::JobState::kDone || !ctx.converged())
          fail(method + " session solve did not converge");
        else if (ctx.stats().iterations != traced.stats[c].iterations)
          fail(method + " traced solve took " +
               std::to_string(traced.stats[c].iterations) +
               " iterations, session " +
               std::to_string(ctx.stats().iterations));
        else if (!perfbench::bitwise_equal(ctx.x(), traced.x[c]))
          fail(method + " traced iterate differs from the session's");
        else if (!perfbench::residual_ok(rel, perfbench::kRtol))
          fail(method + " true residual " + std::to_string(rel));
      }
      std::size_t iterations = 0;
      for (const krylov::SolveStats& st : traced.stats)
        iterations = std::max(iterations, st.iterations);
      double spans[kLayers] = {}, calls[kLayers] = {};
      for (int r = 0; r < perfbench::kRanks; ++r) {
        const LayerTotals& t = traced.totals[r];
        const perfbench::CallCounts counts{iterations, t.calls[kSpmv],
                                           t.calls[kPc], t.calls[kPost]};
        const std::string bad =
            perfbench::table1_violation(method, perfbench::kS, counts);
        if (!bad.empty()) fail("rank " + std::to_string(r) + ": " + bad);
        double covered = 0.0;
        for (int l = 0; l < kLayers; ++l) {
          spans[l] += t.seconds[l] / perfbench::kRanks;
          calls[l] += static_cast<double>(t.calls[l]) / perfbench::kRanks;
          covered += t.seconds[l];
        }
        min_share = std::min(min_share, covered / traced.wall);
      }
      sample("sparse.spmv_s" + suffix, spans[kSpmv]);
      sample("sparse.spmv_calls" + suffix, calls[kSpmv]);
      sample("par.allreduce_post_s" + suffix, spans[kPost]);
      sample("par.allreduce_wait_s" + suffix, spans[kWait]);
      sample("par.allreduce_calls" + suffix, calls[kPost]);
      sample("krylov.local_s" + suffix, spans[kLocal]);
      sample("krylov.local_calls" + suffix, calls[kLocal]);
      sample("krylov.iterations" + suffix, static_cast<double>(iterations));
      if (kind == kBatchKind) continue;
      sample("precond.apply_s" + suffix, spans[kPc]);

      // 4. The observed path: the same request with tracing, alerts and
      // metrics wired in, against step 1's plain session solve.
      session.set_observability(observed);
      const std::size_t alerts_before = alerts.alerts().size();
      service::SolveContext octx(method, reqs[0]->b, opts);
      t0 = Clock::now();
      session.solve(octx);
      sample("obs.overhead_s" + suffix,
             perfbench::seconds_since(t0) - session_s);
      session.set_observability({});
      ++result.attempted;
      if (!perfbench::bitwise_equal(octx.x(), ctxs[0]->x()))
        fail(method + " observed iterate differs from the plain one");
      const std::vector<obs::anomaly::Alert> all = alerts.alerts();
      for (std::size_t i = alerts_before; i < all.size(); ++i) {
        if (all[i].family == "convergence_stall") ++stall_alerts;
        if (all[i].family == "straggler") ++straggler_alerts;
      }
      trace_bytes += file_bytes_and_remove(trace_dir);
      ++observed_requests;
    }
  }
  std::filesystem::remove_all(trace_dir);

  // Standalone layer timings.
  const double spmv_s = direct.spmv_seconds(0.3, main_track);
  const double spmv_gbs =
      static_cast<double>(direct.spmv_bytes()) / spmv_s / 1e9;
  const double allreduce_us = direct.allreduce_us(5000, main_track);
  const auto [dot_gbs, axpy_gbs] = la_gbs(direct.local_rows());

  result.add("sparse.spmv_gbs", spmv_gbs, "GB/s");
  result.add("sparse.spmv_roofline", spmv_gbs / triad, "ratio");
  result.add("sparse.dist_build_s", direct.dist_build_s, "s");
  result.add("precond.build_s", direct.pc_build_s, "s");
  result.add("par.allreduce_us", allreduce_us, "us");
  result.add("par.team_spawn_s", direct.team_spawn_s, "s");
  result.add("la.dot_batch_gbs", dot_gbs, "GB/s");
  result.add("la.axpy_pair_gbs", axpy_gbs, "GB/s");
  result.add("service.batch_width",
             static_cast<double>(batch_width_num) /
                 static_cast<double>(std::max<std::size_t>(batch_width_den,
                                                           1)),
             "count");
  const double per_request = static_cast<double>(observed_requests);
  result.add("obs.trace_bytes",
             static_cast<double>(trace_bytes) / per_request, "B");
  result.add("obs.stall_alerts",
             static_cast<double>(stall_alerts) / per_request, "count");
  result.add("obs.straggler_alerts",
             static_cast<double>(straggler_alerts) / per_request, "count");
  result.add("bench.trace_overhead", traced_sum / untraced_sum, "ratio");
  result.add("bench.attributed_share", min_share, "ratio");
  result.add("machine.triad_gbs", triad, "GB/s");
  for (const auto& [name, values] : samples) {
    const bool count = name.find("_calls") != std::string::npos ||
                       name.find("iterations") != std::string::npos;
    result.add(name, perfbench::median(values), count ? "count" : "s");
  }

  std::vector<Track*> tracks{&main_track};
  for (int r = 0; r < perfbench::kRanks; ++r)
    tracks.push_back(&direct.tracks()[r]);
  write_spans(args.out, tracks);
  std::fprintf(stderr, "perfbench_trace: %s seed=%llu spans in %s\n", w.name,
               static_cast<unsigned long long>(args.seed), args.out.c_str());
  result.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 2;
  }
}
