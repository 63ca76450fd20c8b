// fib: fork-join fib(n) through xk::spawn / xk::sync. Almost all of its
// time is task creation, steal requests and joins: no dependencies to
// resolve, no loops, no kernels. Its input does not depend on the seed.
#include <memory>

#include "common.hpp"

namespace pb {

namespace {

constexpr int kFibN = 32;

void fib(int n, std::uint64_t* out) {
  if (n < 2) {
    *out = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  xk::spawn([n, &a] { fib(n - 1, &a); });
  fib(n - 2, &b);
  xk::sync();
  *out = a + b;
}

std::uint64_t fib_iterative(int n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

struct Pools {
  xk::Runtime nw;
  xk::Runtime one;
  explicit Pools(unsigned n) : nw(pool_config(n)), one(pool_config(1)) {}
};

/// One root solve on `rt`; returns its wall time and checks its result.
double solve(xk::Runtime& rt, Spans& spans, const char* name,
             std::uint64_t want, Result& r) {
  std::uint64_t got = 0;
  const std::uint64_t t0 = now_ns();
  {
    Scope op(spans, name);
    Scope section(spans, "core.section");
    rt.run([&] {
      Scope root(spans, "core.spawn.fib_root");
      fib(kFibN, &got);
    });
  }
  const double dt = secs_since(t0);
  r.op(true, got == want, "fib result differs from the iterative value");
  return dt;
}

}  // namespace

void run_fib(const Args& a, Result& r, Spans& spans, std::string& extra) {
  const std::uint64_t want = fib_iterative(kFibN);
  std::vector<double> setup;
  std::unique_ptr<Pools> p;
  for (int i = 0; i < kSetups; ++i) {
    p.reset();
    const std::uint64_t t0 = now_ns();
    p = std::make_unique<Pools>(xk::hardware_cores());
    solve(p->nw, spans, "warmup", want, r);
    solve(p->one, spans, "warmup_1w", want, r);
    setup.push_back(secs_since(t0));
  }

  std::vector<double> t_n;
  std::vector<double> t_1;
  auto round = [&] {
    t_n.push_back(solve(p->nw, spans, "solve", want, r));
    t_1.push_back(solve(p->one, spans, "solve_1w", want, r));
  };
  double untraced = 0.0;
  Counters cn0;
  Counters c10;
  const int rounds = measure(a, spans, round, [&] {
    untraced = median(t_n);
    t_n.clear();
    t_1.clear();
    cn0 = counters(p->nw);
    c10 = counters(p->one);
  });
  if (!a.trace) {
    r.set("setup_s", median(setup));
    r.set("solve_1w_s", median(t_1));
    r.detail("solve_s", median(t_n), "s");
    return;
  }
  const Counters cn = counters(p->nw) - cn0;
  const Counters c1 = counters(p->one) - c10;
  scheduler_metrics(r, cn, rounds, c1, rounds);
  const double tasks = static_cast<double>(c1.at("tasks_spawned")) / rounds;
  r.set("core.spawn.ns_per_task", median(t_1) / tasks * 1e9);
  r.set("core.section.empty_run_us", empty_run_us(p->nw, spans));
  r.set("bench.solve_s", median(t_n));
  r.set("bench.trace_overhead", median(t_n) - untraced);
  extra = "\"counters_nproc\":" + counters_json(cn) +
          ",\"counters_1w\":" + counters_json(c1);
}

}  // namespace pb
