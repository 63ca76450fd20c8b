// service: open-loop Poisson arrivals into Runtime::submit at one fixed
// offered rate, spread over two tenants. One generator thread (this one)
// submits each job at its scheduled instant whatever the pool is doing, so
// a stall delays every later job; a job's latency runs from its scheduled
// arrival to the end of its body. Arrival gaps, tenants and job inputs come
// from the seed.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <memory>

#include "common.hpp"

namespace pb {

namespace {

constexpr double kRate = 2000.0;  // offered jobs per second
constexpr int kBurstJobs = 500;   // arrivals per pool per round (0.25 s)
constexpr int kProbeJobs = 32;     // closed-loop submit+wait pairs per round
constexpr unsigned kTenants = 2;
// Hash steps per job body, about 80 us: a sixth of the 1-worker pool's
// capacity at kRate. With shorter jobs the median latency is mostly wake-up
// and dispatch, which moved by 20% between runs on this VM.
constexpr int kJobSteps = 27000;

std::uint64_t job_value(std::uint64_t v) {
  SplitMix h{v};
  std::uint64_t acc = 0;
  for (int i = 0; i < kJobSteps; ++i) acc ^= h.next();
  return acc;
}

/// One job's inputs (from the seed) and what its body wrote.
struct Job {
  std::uint64_t due = 0;  // scheduled arrival, ns since the burst began
  unsigned tenant = 0;
  std::uint64_t input = 0;
  std::uint64_t output = 0;
  std::atomic<int> runs{0};
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct Samples {
  std::vector<double> latency;    // scheduled arrival -> end of body
  std::vector<double> submit;     // duration of the submit call
  std::vector<double> queue;      // return of submit -> start of body
  std::vector<double> settle;     // end of body -> return of wait (probe)
  std::vector<double> lag;        // generator lateness at each submit
  std::uint64_t jobs = 0;
  void clear() { *this = Samples{}; }
};

struct Pools {
  xk::Runtime nw;
  xk::Runtime one;
  explicit Pools(unsigned n) : nw(pool_config(n)), one(pool_config(1)) {}
};

xk::JobToken submit_job(xk::Runtime& rt, Job& j) {
  xk::SubmitOptions opts;
  opts.tenant = j.tenant;
  return rt.submit(
      [&j] {
        j.start_ns = now_ns();
        j.runs.fetch_add(1, std::memory_order_relaxed);
        j.output = job_value(j.input);
        j.end_ns = now_ns();
      },
      opts);
}

/// Checks one waited job: settled kDone, body ran once, value recomputed.
/// Returns true when the job completed (its timings are meaningful).
bool check_job(const xk::JobToken& t, const Job& j, Result& r) {
  const bool done = t.status() == xk::JobStatus::kDone;
  r.op(done, !done || (j.runs.load(std::memory_order_relaxed) == 1 &&
                       j.output == job_value(j.input)),
       "service job");
  return done;
}

/// Checks the service_stats() deltas of a batch against the client's own
/// count of admitted, completed and rejected jobs.
void check_accounting(const xk::ServiceStats& before,
                      const xk::ServiceStats& after,
                      const std::vector<xk::JobToken>& tokens, Result& r) {
  std::uint64_t done = 0;
  std::uint64_t rejected = 0;
  for (const xk::JobToken& t : tokens) {
    done += t.status() == xk::JobStatus::kDone;
    rejected += t.status() == xk::JobStatus::kRejected;
  }
  const bool ok = after.submitted - before.submitted == tokens.size() - rejected &&
                  after.completed - before.completed == done &&
                  after.rejected - before.rejected == rejected &&
                  after.failed == before.failed &&
                  after.cancelled == before.cancelled;
  r.op(true, ok, "service_stats deltas");
}

/// Draws the next burst's arrivals, tenants and inputs.
void draw(SplitMix& rng, std::vector<Job>& jobs) {
  double t = 0.0;
  for (Job& j : jobs) {
    t += -std::log1p(-rng.uniform()) / kRate;
    j.due = static_cast<std::uint64_t>(t * 1e9);
    j.tenant = static_cast<unsigned>(rng.next() % kTenants);
    j.input = rng.next();
    j.output = 0;
    j.runs.store(0, std::memory_order_relaxed);
  }
}

/// One open-loop burst on `rt`, then kProbeJobs closed-loop submit+wait
/// pairs that time the settle path.
void burst(xk::Runtime& rt, std::vector<Job>& jobs, std::vector<Job>& probe,
           Spans& spans, const char* name, Samples& s, Result& r) {
  const xk::ServiceStats before = rt.service_stats();
  std::vector<xk::JobToken> tokens(jobs.size());
  std::vector<std::uint64_t> submitted(jobs.size());
  Scope op(spans, name);
  const int parent = spans.top();
  const std::uint64_t base = now_ns();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint64_t due = base + jobs[i].due;
    while (now_ns() < due) {
    }
    const std::uint64_t t0 = now_ns();
    tokens[i] = submit_job(rt, jobs[i]);
    submitted[i] = now_ns();
    s.lag.push_back(static_cast<double>(t0 - due) * 1e-9);
    s.submit.push_back(static_cast<double>(submitted[i] - t0) * 1e-9);
    spans.add("core.service.submit", parent, t0, submitted[i],
              static_cast<std::int64_t>(i));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint64_t t0 = now_ns();
    tokens[i].wait();
    spans.add("core.service.wait", parent, t0, now_ns(),
              static_cast<std::int64_t>(i));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    if (!check_job(tokens[i], j, r)) continue;
    const std::uint64_t due = base + j.due;
    s.latency.push_back(
        j.end_ns > due ? static_cast<double>(j.end_ns - due) * 1e-9 : 0.0);
    s.queue.push_back(
        j.start_ns > submitted[i]
            ? static_cast<double>(j.start_ns - submitted[i]) * 1e-9
            : 0.0);
    spans.add("service.job", parent, j.start_ns, j.end_ns,
              static_cast<std::int64_t>(i));
  }
  s.jobs += jobs.size();
  for (std::size_t k = 0; k < probe.size(); ++k) {
    Job& j = probe[k];
    const auto req = static_cast<std::int64_t>(jobs.size() + k);
    const std::uint64_t t0 = now_ns();
    xk::JobToken t = submit_job(rt, j);
    const std::uint64_t t1 = now_ns();
    t.wait();
    const std::uint64_t t2 = now_ns();
    spans.add("core.service.submit", parent, t0, t1, req);
    spans.add("core.service.wait", parent, t1, t2, req);
    if (check_job(t, j, r)) {
      spans.add("service.job", parent, j.start_ns, j.end_ns, req);
      s.settle.push_back(
          t2 > j.end_ns ? static_cast<double>(t2 - j.end_ns) * 1e-9 : 0.0);
    }
    tokens.push_back(t);
  }
  check_accounting(before, rt.service_stats(), tokens, r);
}

}  // namespace

void run_service(const Args& a, Result& r, Spans& spans, std::string& extra) {
  // The generator spins through every gap and stays on the last core (the
  // pool's last worker binds there too). Left to float, it lands on a
  // different pool thread's core from run to run, is descheduled for whole
  // time slices, and the median latency moves by half between runs.
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(xk::hardware_cores() - 1, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  SplitMix rng{a.seed};
  std::vector<Job> jobs(kBurstJobs);
  std::vector<Job> probe(kProbeJobs);
  Samples sn;
  Samples s1;
  auto round = [&](xk::Runtime& nw, xk::Runtime& one, const char* name,
                   const char* name_1w) {
    draw(rng, jobs);
    draw(rng, probe);
    burst(nw, jobs, probe, spans, name, sn, r);
    draw(rng, jobs);
    draw(rng, probe);
    burst(one, jobs, probe, spans, name_1w, s1, r);
  };

  // Set-up warms each pool with one round of the measured traffic: the
  // first submit starts the dispatcher, the first burst opens its section.
  std::vector<double> setup;
  std::unique_ptr<Pools> p;
  for (int i = 0; i < kSetups; ++i) {
    p.reset();
    const std::uint64_t t0 = now_ns();
    p = std::make_unique<Pools>(xk::hardware_cores());
    round(p->nw, p->one, "warmup", "warmup_1w");
    setup.push_back(secs_since(t0));
  }
  sn.clear();
  s1.clear();
  double untraced = 0.0;
  Counters cn0;
  Counters c10;
  xk::ServiceStats sv0;
  measure(a, spans, [&] { round(p->nw, p->one, "serve", "serve_1w"); }, [&] {
    untraced = median(sn.latency);
    sn.clear();
    s1.clear();
    cn0 = counters(p->nw);
    c10 = counters(p->one);
    sv0 = p->nw.service_stats();
  });
  if (!a.trace) {
    r.set("setup_s", median(setup));
    r.set("solve_1w_s", median(s1.latency));
    r.detail("solve_s", median(sn.latency), "s");
    r.detail("latency_p99_s", quantile(sn.latency, 0.99), "s");
    r.detail("latency_1w_p99_s", quantile(s1.latency, 0.99), "s");
    r.detail("samples", static_cast<double>(sn.latency.size()), "count");
    r.detail("samples_1w", static_cast<double>(s1.latency.size()), "count");
    r.detail("generator_lag_p99_s", quantile(sn.lag, 0.99), "s");
    return;
  }
  const Counters cn = counters(p->nw) - cn0;
  const Counters c1 = counters(p->one) - c10;
  const auto jobs_n = static_cast<double>(sn.jobs);
  scheduler_metrics(r, cn, jobs_n, c1, static_cast<double>(s1.jobs));
  const xk::ServiceStats st = p->nw.service_stats();
  r.set("core.service.sections",
        static_cast<double>(st.sections - sv0.sections) / jobs_n);
  r.set("core.service.submit_us", median(sn.submit) * 1e6);
  r.set("core.service.queue_wait_s", median(sn.queue));
  r.set("core.service.settle_s", median(sn.settle));
  r.set("core.service.latency_p50_s", median(sn.latency));
  r.set("core.service.latency_p99_s", quantile(sn.latency, 0.99));
  r.set("core.service.max_queued", static_cast<double>(st.max_queued));
  r.set("bench.solve_s", median(sn.latency));
  r.set("bench.generator_lag_s", quantile(sn.lag, 0.99));
  r.set("bench.trace_overhead", median(sn.latency) - untraced);
  extra = "\"counters_nproc\":" + counters_json(cn) +
          ",\"counters_1w\":" + counters_json(c1);
  r.set("core.section.empty_run_us", empty_run_us(p->nw, spans));
}

}  // namespace pb
