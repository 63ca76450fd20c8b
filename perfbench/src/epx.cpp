// epx: the EPX mini-app time loop (epx::simulate), MEPPEN then MAXPLANE, as
// in the paper's Fig. 8 pair. MEPPEN's time is parallel_for loops (LOOPELM,
// REPERA); MAXPLANE's is contact search, many small skyline dataflow
// factorizations inside one long section, and sequential "other" work.
// Both scenarios are fixed meshes: the input does not depend on the seed.
#include <bit>
#include <functional>
#include <memory>

#include "common.hpp"
#include "epx/simulation.hpp"
#include "skyline/factor.hpp"

namespace pb {

namespace {

namespace epx = xk::epx;

struct ScenarioSpec {
  const char* name;
  const char* span;
  epx::Scenario (*make)();
  int steps;
};

const ScenarioSpec kScenarios[] = {
    {"meppen", "epx.simulate.meppen", [] { return epx::make_meppen(4); }, 60},
    {"maxplane", "epx.simulate.maxplane",
     [] { return epx::make_maxplane(2, 6); }, 30},
};
constexpr int kNumScenarios = 2;

/// What the sequential elision of one scenario produced.
struct Reference {
  std::uint64_t checksum_bits = 0;
  int factorizations = 0;
};

std::uint64_t checksum_bits(const epx::Mesh& mesh) {
  return std::bit_cast<std::uint64_t>(epx::state_checksum(mesh));
}

/// The time loop of epx::simulate rebuilt from the public kernels, with
/// sequential loops and factorizations, so that every factorization's info
/// is seen (simulate does not report it). Returns false when any info is
/// nonzero; `checksum` receives the final state's checksum.
bool replay(epx::Scenario& sc, int steps, std::uint64_t* checksum) {
  epx::Mesh& mesh = sc.mesh;
  const double dt = sc.dt;
  const epx::LoopRunner run = epx::seq_runner();
  epx::LoopelmState elm;
  elm.resize(mesh.nelems());
  epx::ReperaState rep;
  std::vector<epx::Constraint> constraints;
  bool all_ok = true;
  for (int step = 0; step < steps; ++step) {
    epx::loopelm(mesh, elm, dt, sc.material_iters, run);
    if (step % sc.repera_every == 0) {
      epx::repera(mesh, rep, run);
      constraints = epx::select_constraints(mesh, rep);
    }
    for (int n = 0; n < mesh.nnodes(); ++n) {
      const auto i = static_cast<std::size_t>(n);
      const double inv_m = 1.0 / mesh.mass[i];
      mesh.v[i].x += dt * (mesh.f_ext[i].x - mesh.f_int[i].x) * inv_m;
      mesh.v[i].y += dt * (mesh.f_ext[i].y - mesh.f_int[i].y) * inv_m;
      mesh.v[i].z += dt * (mesh.f_ext[i].z - mesh.f_int[i].z) * inv_m;
    }
    if (!constraints.empty()) {
      epx::CondensedSystem sys = epx::build_condensed_system(
          mesh, constraints, sc.cholesky_block, dt);
      const int info = xk::skyline::factor_sequential(sys.h);
      std::vector<double> lambda(sys.rhs.size(), 0.0);
      if (info == 0) {
        xk::skyline::solve_factored(sys.h, sys.rhs.data(), lambda.data());
      }
      all_ok = all_ok && info == 0;
      epx::apply_multipliers(mesh, sys, lambda);
    }
    for (int n = 0; n < mesh.nnodes(); ++n) {
      const auto i = static_cast<std::size_t>(n);
      mesh.x[i].x += dt * mesh.v[i].x;
      mesh.x[i].y += dt * mesh.v[i].y;
      mesh.x[i].z += dt * mesh.v[i].z;
    }
  }
  *checksum = checksum_bits(mesh);
  return all_ok;
}

/// Calls into the foreach layer, counted and timed around the LoopRunner
/// handed to simulate.
struct LoopStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

epx::LoopRunner timed_runner(Spans& spans, LoopStats& st) {
  return [&spans, &st, inner = epx::xkaapi_runner()](
             std::int64_t n,
             const std::function<void(std::int64_t, std::int64_t)>& body) {
    const std::uint64_t t0 = now_ns();
    {
      Scope s(spans, "core.foreach");
      inner(n, body);
    }
    st.ns += now_ns() - t0;
    ++st.calls;
  };
}

struct Pools {
  xk::Runtime nw;
  xk::Runtime one;
  explicit Pools(unsigned n) : nw(pool_config(n)), one(pool_config(1)) {}
};

struct Run {
  double wall = 0.0;
  epx::PhaseTimes phases;
};

/// One scenario time loop on `rt` inside one section, from a fresh
/// scenario built outside the timed region; checked against `ref`.
Run simulate_on(xk::Runtime& rt, const ScenarioSpec& spec,
                const Reference& ref, Spans& spans, const char* name,
                std::int64_t req, LoopStats& loops, Result& r) {
  epx::Scenario sc = spec.make();
  epx::SimOptions opt;
  opt.loop = timed_runner(spans, loops);
  opt.rt = &rt;
  Run out;
  const std::uint64_t t0 = now_ns();
  {
    Scope op(spans, name, req);
    Scope section(spans, "core.section");
    rt.run([&] {
      Scope sim(spans, spec.span);
      out.phases = epx::simulate(sc, spec.steps, opt);
    });
  }
  out.wall = secs_since(t0);
  r.op(true,
       checksum_bits(sc.mesh) == ref.checksum_bits &&
           out.phases.factorizations == ref.factorizations,
       spec.name);
  return out;
}

}  // namespace

void run_epx(const Args& a, Result& r, Spans& spans, std::string& extra) {
  std::vector<double> setup;
  // Sequential elision per scenario, one sample per set-up.
  std::vector<epx::PhaseTimes> seq[kNumScenarios];
  Reference ref[kNumScenarios];
  LoopStats loops_n;  // the nproc pool's loop calls (the 1-worker pool's
  LoopStats loops_1;  // are timed the same way but not reported)
  std::unique_ptr<Pools> p;
  for (int i = 0; i < kSetups; ++i) {
    p.reset();
    const std::uint64_t t0 = now_ns();
    p = std::make_unique<Pools>(xk::hardware_cores());
    for (int k = 0; k < kNumScenarios; ++k) {
      const ScenarioSpec& spec = kScenarios[k];
      epx::Scenario sc = spec.make();
      seq[k].push_back(epx::simulate(sc, spec.steps, epx::SimOptions{}));
      ref[k] = {checksum_bits(sc.mesh), seq[k].back().factorizations};
      epx::Scenario again = spec.make();
      std::uint64_t replayed = 0;
      const bool infos_ok = replay(again, spec.steps, &replayed);
      r.op(infos_ok, replayed == ref[k].checksum_bits,
           "sequential replay of the time loop");
      simulate_on(p->nw, spec, ref[k], spans, "warmup", -1, loops_n, r);
      simulate_on(p->one, spec, ref[k], spans, "warmup_1w", -1, loops_1, r);
    }
    setup.push_back(secs_since(t0));
  }

  std::vector<double> t_n;
  std::vector<double> t_1;
  std::vector<Run> runs[kNumScenarios];
  std::vector<double> runs_1w[kNumScenarios];
  auto round = [&] {
    const auto req = static_cast<std::int64_t>(t_n.size());
    double wall = 0.0;
    for (int k = 0; k < kNumScenarios; ++k) {
      runs[k].push_back(simulate_on(p->nw, kScenarios[k], ref[k], spans,
                                    "solve", req, loops_n, r));
      wall += runs[k].back().wall;
    }
    t_n.push_back(wall);
    wall = 0.0;
    for (int k = 0; k < kNumScenarios; ++k) {
      runs_1w[k].push_back(simulate_on(p->one, kScenarios[k], ref[k], spans,
                                       "solve_1w", req, loops_1, r)
                               .wall);
      wall += runs_1w[k].back();
    }
    t_1.push_back(wall);
  };
  double untraced = 0.0;
  Counters cn0;
  Counters c10;
  const int rounds = measure(a, spans, round, [&] {
    untraced = median(t_n);
    t_n.clear();
    t_1.clear();
    for (int k = 0; k < kNumScenarios; ++k) {
      runs[k].clear();
      runs_1w[k].clear();
    }
    cn0 = counters(p->nw);
    c10 = counters(p->one);
    loops_n = LoopStats{};
  });

  const auto phase = [&](int k, double epx::PhaseTimes::*field) {
    std::vector<double> v;
    for (const Run& run : runs[k]) v.push_back(run.phases.*field);
    return median(std::move(v));
  };
  const auto seq_phase = [&](int k, double epx::PhaseTimes::*field) {
    std::vector<double> v;
    for (const epx::PhaseTimes& t : seq[k]) v.push_back(t.*field);
    return median(std::move(v));
  };
  const auto wall = [&](int k) {
    std::vector<double> v;
    for (const Run& run : runs[k]) v.push_back(run.wall);
    return median(std::move(v));
  };
  if (!a.trace) {
    r.set("setup_s", median(setup));
    r.set("solve_1w_s", median(t_1));
    r.detail("solve_s", median(t_n), "s");
    for (int k = 0; k < kNumScenarios; ++k) {
      const std::string name = kScenarios[k].name;
      r.detail(name + "_s", wall(k), "s");
      r.detail(name + "_1w_s", median(runs_1w[k]), "s");
      r.detail(name + "_seq_s", seq_phase(k, &epx::PhaseTimes::loopelm) +
                                    seq_phase(k, &epx::PhaseTimes::repera) +
                                    seq_phase(k, &epx::PhaseTimes::cholesky) +
                                    seq_phase(k, &epx::PhaseTimes::other),
               "s");
    }
    return;
  }
  const Counters cn = counters(p->nw) - cn0;
  const Counters c1 = counters(p->one) - c10;
  scheduler_metrics(r, cn, rounds, c1, rounds);
  const double tasks = static_cast<double>(c1.at("tasks_spawned")) / rounds;
  r.set("core.spawn.ns_per_task", median(t_1) / tasks * 1e9);
  const auto calls = static_cast<double>(loops_n.calls);
  const double loop_s = static_cast<double>(loops_n.ns) * 1e-9;
  r.set("core.foreach.calls", calls / rounds);
  r.set("core.foreach.loop_s", loop_s / rounds);
  r.set("core.foreach.us_per_call", calls > 0 ? loop_s / calls * 1e6 : 0.0);
  for (int k = 0; k < kNumScenarios; ++k) {
    const std::string pre = std::string("epx.") + kScenarios[k].name;
    r.set(pre + "_s", wall(k));
    r.set(pre + ".loopelm_s", phase(k, &epx::PhaseTimes::loopelm));
    r.set(pre + ".repera_s", phase(k, &epx::PhaseTimes::repera));
    r.set(pre + ".other_s", phase(k, &epx::PhaseTimes::other));
    r.set(pre + ".loopelm_seq_s", seq_phase(k, &epx::PhaseTimes::loopelm));
    r.set(pre + ".repera_seq_s", seq_phase(k, &epx::PhaseTimes::repera));
    r.set(pre + ".other_seq_s", seq_phase(k, &epx::PhaseTimes::other));
  }
  r.set("skyline.factor_s", phase(1, &epx::PhaseTimes::cholesky));
  r.set("skyline.factor_seq_s", seq_phase(1, &epx::PhaseTimes::cholesky));
  r.set("skyline.factorizations",
        runs[0].front().phases.factorizations +
            runs[1].front().phases.factorizations);
  r.set("core.section.empty_run_us", empty_run_us(p->nw, spans));
  r.set("bench.solve_s", median(t_n));
  r.set("bench.trace_overhead", median(t_n) - untraced);
  extra = "\"counters_nproc\":" + counters_json(cn) +
          ",\"counters_1w\":" + counters_json(c1);
}

}  // namespace pb
