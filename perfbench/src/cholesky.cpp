// cholesky: dense tiled Cholesky through linalg::cholesky_xkaapi, with
// tiles small enough that one graph holds tens of thousands of dataflow
// tasks: access registration, the readiness scan and the ready list do the
// work, not the kernels. The matrix and the test vector come from the seed.
#include <cmath>
#include <cstring>
#include <memory>

#include "common.hpp"
#include "linalg/cholesky.hpp"

namespace pb {

namespace {

constexpr int kN = 1536;
constexpr int kNB = 32;
// ||A·x - L·(L^T·x)|| / (||A||_F·||x||) is about 6e-17 for this strongly
// diagonal matrix; a factor with one stale or missing update is far above.
constexpr double kTolerance = 1e-12;

using xk::linalg::TiledMatrix;

/// The symmetric positive-definite input, its test vector x, and A·x.
struct Problem {
  TiledMatrix a0{kN, kNB};
  std::vector<double> x;
  std::vector<double> ax;
  double norm_a = 0.0;
  double norm_x = 0.0;

  explicit Problem(std::uint64_t seed) {
    SplitMix rng{seed};
    const int nt = a0.nt();
    double sum_sq = 0.0;
    // Lower-triangle tiles get entries in [-1, 1), the diagonal n more;
    // diagonal tiles are mirrored so each holds a symmetric block.
    for (int j = 0; j < nt; ++j) {
      for (int i = j; i < nt; ++i) {
        double* t = a0.tile(i, j);
        for (int c = 0; c < kNB; ++c) {
          for (int rr = (i == j ? c : 0); rr < kNB; ++rr) {
            double v = 2.0 * rng.uniform() - 1.0;
            if (i == j && rr == c) v += kN;
            t[c * kNB + rr] = v;
            if (i == j) t[rr * kNB + c] = v;
            sum_sq += (i == j && rr == c) ? v * v : 2.0 * v * v;
          }
        }
      }
    }
    norm_a = std::sqrt(sum_sq);
    x.resize(kN);
    for (double& v : x) v = 2.0 * rng.uniform() - 1.0;
    norm_x = norm2(x);
    ax = symmetric_matvec(a0, x);
  }

  static double norm2(const std::vector<double>& v) {
    double s = 0.0;
    for (double e : v) s += e * e;
    return std::sqrt(s);
  }

  /// y = A·x from the lower-triangle tiles (diagonal tiles are full).
  static std::vector<double> symmetric_matvec(const TiledMatrix& a,
                                              const std::vector<double>& x) {
    std::vector<double> y(kN, 0.0);
    const int nt = a.nt();
    for (int j = 0; j < nt; ++j) {
      for (int i = j; i < nt; ++i) {
        const double* t = a.tile(i, j);
        for (int c = 0; c < kNB; ++c) {
          for (int rr = 0; rr < kNB; ++rr) {
            const double v = t[c * kNB + rr];
            y[static_cast<std::size_t>(i * kNB + rr)] +=
                v * x[static_cast<std::size_t>(j * kNB + c)];
            if (i != j) {
              y[static_cast<std::size_t>(j * kNB + c)] +=
                  v * x[static_cast<std::size_t>(i * kNB + rr)];
            }
          }
        }
      }
    }
    return y;
  }

  /// ||A·x - L·(L^T·x)|| / (||A||·||x||) with L the lower triangle of `l`.
  double residual(const TiledMatrix& l) const {
    const int nt = l.nt();
    const auto lower = [](int i, int j, int rr, int c) {
      return i != j || rr >= c;
    };
    std::vector<double> z(kN, 0.0);  // z = L^T·x
    for (int j = 0; j < nt; ++j) {
      for (int i = j; i < nt; ++i) {
        const double* t = l.tile(i, j);
        for (int c = 0; c < kNB; ++c) {
          for (int rr = 0; rr < kNB; ++rr) {
            if (!lower(i, j, rr, c)) continue;
            z[static_cast<std::size_t>(j * kNB + c)] +=
                t[c * kNB + rr] * x[static_cast<std::size_t>(i * kNB + rr)];
          }
        }
      }
    }
    std::vector<double> w(kN, 0.0);  // w = L·z
    for (int j = 0; j < nt; ++j) {
      for (int i = j; i < nt; ++i) {
        const double* t = l.tile(i, j);
        for (int c = 0; c < kNB; ++c) {
          for (int rr = 0; rr < kNB; ++rr) {
            if (!lower(i, j, rr, c)) continue;
            w[static_cast<std::size_t>(i * kNB + rr)] +=
                t[c * kNB + rr] * z[static_cast<std::size_t>(j * kNB + c)];
          }
        }
      }
    }
    for (std::size_t k = 0; k < w.size(); ++k) w[k] -= ax[k];
    return norm2(w) / (norm_a * norm_x);
  }
};

bool same_bits(const TiledMatrix& a, const TiledMatrix& b) {
  const std::size_t bytes = static_cast<std::size_t>(a.nt()) * a.nt() *
                            a.tile_elems() * sizeof(double);
  return std::memcmp(a.tile(0, 0), b.tile(0, 0), bytes) == 0;
}

struct State {
  xk::Runtime nw;
  xk::Runtime one;
  Problem problem;
  TiledMatrix ref{kN, kNB};   // the sequential elision's factor
  TiledMatrix work{kN, kNB};  // refilled from problem.a0 before each solve
  State(unsigned n, std::uint64_t seed)
      : nw(pool_config(n)), one(pool_config(1)), problem(seed) {}
};

/// Refills the input (untimed), factors it on `rt` (timed), then checks
/// the factor bit for bit against the sequential elision and by residual.
double solve(State& s, xk::Runtime& rt, Spans& spans, const char* name,
             Result& r) {
  s.work = s.problem.a0;
  int info = 0;
  const std::uint64_t t0 = now_ns();
  {
    Scope op(spans, name);
    Scope call(spans, "linalg.cholesky_xkaapi");
    info = xk::linalg::cholesky_xkaapi(s.work, rt);
  }
  const double dt = secs_since(t0);
  bool output_ok = true;
  if (info == 0) {
    Scope check(spans, "bench.verify");
    output_ok = same_bits(s.work, s.ref) &&
                s.problem.residual(s.work) < kTolerance;
  }
  r.op(info == 0, output_ok, "cholesky_xkaapi factor");
  return dt;
}

}  // namespace

void run_cholesky(const Args& a, Result& r, Spans& spans, std::string& extra) {
  std::vector<double> setup;
  std::vector<double> seq;
  std::unique_ptr<State> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const std::uint64_t t0 = now_ns();
    s = std::make_unique<State>(xk::hardware_cores(), a.seed);
    s->ref = s->problem.a0;
    const std::uint64_t ts = now_ns();
    const int info = xk::linalg::cholesky_sequential(s->ref);
    seq.push_back(secs_since(ts));
    if (info != 0 || s->problem.residual(s->ref) >= kTolerance) {
      r.bad_reference("cholesky_sequential factor");
    }
    solve(*s, s->nw, spans, "warmup", r);
    solve(*s, s->one, spans, "warmup_1w", r);
    setup.push_back(secs_since(t0));
  }

  std::vector<double> t_n;
  std::vector<double> t_1;
  auto round = [&] {
    t_n.push_back(solve(*s, s->nw, spans, "solve", r));
    t_1.push_back(solve(*s, s->one, spans, "solve_1w", r));
  };
  double untraced = 0.0;
  Counters cn0;
  Counters c10;
  const int rounds = measure(a, spans, round, [&] {
    untraced = median(t_n);
    t_n.clear();
    t_1.clear();
    cn0 = counters(s->nw);
    c10 = counters(s->one);
  });
  if (!a.trace) {
    r.set("setup_s", median(setup));
    r.set("solve_1w_s", median(t_1));
    r.detail("solve_s", median(t_n), "s");
    r.detail("seq_s", median(seq), "s");
    return;
  }
  const Counters cn = counters(s->nw) - cn0;
  const Counters c1 = counters(s->one) - c10;
  scheduler_metrics(r, cn, rounds, c1, rounds);
  const double tasks = static_cast<double>(c1.at("tasks_spawned")) / rounds;
  const double seq_s = median(seq);
  r.set("core.spawn.ns_per_task", median(t_1) / tasks * 1e9);
  r.set("core.dataflow.ns_per_task", (median(t_1) - seq_s) / tasks * 1e9);
  r.set("linalg.seq_s", seq_s);
  r.set("linalg.gflops_seq", xk::linalg::cholesky_flops(kN) / seq_s * 1e-9);
  r.set("core.section.empty_run_us", empty_run_us(s->nw, spans));
  r.set("bench.solve_s", median(t_n));
  r.set("bench.trace_overhead", median(t_n) - untraced);
  extra = "\"counters_nproc\":" + counters_json(cn) +
          ",\"counters_1w\":" + counters_json(c1);
}

}  // namespace pb
