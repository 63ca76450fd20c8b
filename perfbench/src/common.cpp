#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pb {

namespace {

// The metric names of BENCHMARK.json, with their units. A workload that
// does not call a layer reports that layer's per-layer metrics as 0.
// The nproc solve is not an end-to-end metric: on a shared 4-vCPU machine
// it doubles when the hypervisor steals ~12% of the CPU, while the 1-worker
// solve moves by a few percent (README.md). It is printed on the detail
// line and reported per layer as bench.solve_s.
const std::vector<std::pair<std::string, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"solve_1w_s", "s"},
};

const std::vector<std::pair<std::string, const char*>> kPerLayer = {
    {"core.spawn.tasks", "1/op"},
    {"core.spawn.ns_per_task", "ns"},
    {"core.steal.attempts", "1/op"},
    {"core.steal.ok_ratio", "ratio"},
    {"core.steal.tasks_per_steal", "task/steal"},
    {"core.steal.aggregation", "req/round"},
    {"core.steal.thief_share", "ratio"},
    {"core.dataflow.ns_per_task", "ns"},
    {"core.dataflow.scan_entries_per_steal", "entry/steal"},
    {"core.dataflow.readylist_pops", "1/op"},
    {"core.foreach.calls", "1/op"},
    {"core.foreach.loop_s", "s/op"},
    {"core.foreach.us_per_call", "us"},
    {"core.foreach.chunks", "1/op"},
    {"core.section.empty_run_us", "us"},
    {"core.park.parks", "1/op"},
    {"core.park.wake_ratio", "ratio"},
    {"core.service.submit_us", "us"},
    {"core.service.queue_wait_s", "s"},
    {"core.service.settle_s", "s"},
    {"core.service.sections", "1/op"},
    {"core.service.max_queued", "count"},
    {"core.service.latency_p50_s", "s"},
    {"core.service.latency_p99_s", "s"},
    {"linalg.seq_s", "s"},
    {"linalg.gflops_seq", "GFlop/s"},
    {"skyline.factor_s", "s"},
    {"skyline.factor_seq_s", "s"},
    {"skyline.factorizations", "1/op"},
    {"epx.meppen_s", "s"},
    {"epx.maxplane_s", "s"},
    {"epx.meppen.loopelm_s", "s"},
    {"epx.meppen.repera_s", "s"},
    {"epx.meppen.other_s", "s"},
    {"epx.meppen.loopelm_seq_s", "s"},
    {"epx.meppen.repera_seq_s", "s"},
    {"epx.meppen.other_seq_s", "s"},
    {"epx.maxplane.loopelm_s", "s"},
    {"epx.maxplane.repera_s", "s"},
    {"epx.maxplane.other_s", "s"},
    {"epx.maxplane.loopelm_seq_s", "s"},
    {"epx.maxplane.repera_seq_s", "s"},
    {"epx.maxplane.other_seq_s", "s"},
    {"bench.solve_s", "s"},
    {"bench.generator_lag_s", "s"},
    {"bench.trace_overhead", "s"},
};

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double num_, double den) { return den > 0.0 ? num_ / den : 0.0; }

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int Spans::open(const char* name, std::int64_t req) {
  if (!on) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, top(), now_ns(), 0, req});
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].t1 = now_ns();
  stack_.pop_back();
}

int Spans::add(const char* name, int parent, std::uint64_t t0,
               std::uint64_t t1, std::int64_t req) {
  if (!on) return -1;
  spans_.push_back({name, parent, t0, t1, req});
  return static_cast<int>(spans_.size()) - 1;
}

bool Spans::write(const std::string& path, const std::string& run_id,
                  std::uint64_t origin, const std::string& extra) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run\":";
  json_string(out, run_id);
  out << ",\n" << extra << ",\n\"fields\":[\"id\",\"parent\",\"name\","
      << "\"start_ns\",\"end_ns\",\"req\"],\n\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto rel = [origin](std::uint64_t t) {
      return t >= origin ? t - origin : 0;
    };
    out << (i ? ",\n" : "\n") << '[' << i << ',' << s.parent << ",\""
        << s.name << "\"," << rel(s.t0) << ',' << rel(s.t1) << ',' << s.req
        << ']';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Counters counters(const xk::Runtime& rt) {
  Counters c;
  for (const auto& [name, v] : rt.metrics_snapshot().counters) c[name] = v;
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d = a;
  for (auto& [name, v] : d) {
    const auto it = b.find(name);
    if (it != b.end()) v -= it->second;
  }
  return d;
}

std::string counters_json(const Counters& c) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, v] : c) {
    os << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  os << '}';
  return os.str();
}

xk::Config pool_config(unsigned nworkers) {
  xk::Config cfg;
  cfg.nworkers = nworkers;
  return cfg;
}

Result::Result(bool trace) : trace_(trace), names_(trace ? kPerLayer : kEndToEnd) {}

void Result::op(bool program_ok, bool output_ok, const char* what) {
  ++attempted_;
  if (program_ok && output_ok) return;
  ++failed_;
  if (!output_ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: wrong output: %s\n", what);
  } else {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what);
  }
}

void Result::bad_reference(const char* what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: reference check failed: %s\n", what);
}

void Result::set(const std::string& name, double value) {
  const bool known =
      std::any_of(kEndToEnd.begin(), kEndToEnd.end(),
                  [&](const auto& m) { return m.first == name; }) ||
      std::any_of(kPerLayer.begin(), kPerLayer.end(),
                  [&](const auto& m) { return m.first == name; });
  if (!known) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Result::detail(const std::string& name, double value, const char* unit) {
  detail_.push_back({name, {value, unit}});
}

void Result::print() const {
  std::ostringstream os;
  if (!detail_.empty()) {
    os << "detail {";
    for (std::size_t i = 0; i < detail_.size(); ++i) {
      os << (i ? ", " : "") << '"' << detail_[i].first << "\": {\"value\": "
         << num(detail_[i].second.first) << ", \"unit\": \""
         << detail_[i].second.second << "\"}";
    }
    os << "}\n";
  }
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto it = values_.find(names_[i].first);
    if (it == values_.end() && !trace_) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n",
                   names_[i].first.c_str());
      std::abort();
    }
    os << (i ? ", " : "") << '"' << names_[i].first << "\": {\"value\": "
       << num(it == values_.end() ? 0.0 : it->second) << ", \"unit\": \""
       << names_[i].second << "\"}";
  }
  os << "}}\n";
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
}

std::string Result::values_json() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, v] : values_) {
    os << (first ? "" : ",") << '"' << name << "\":" << num(v);
    first = false;
  }
  os << '}';
  return os.str();
}

void scheduler_metrics(Result& r, const Counters& cn, double ops,
                       const Counters& c1, double ops_1w) {
  const auto g = [](const Counters& c, const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  r.set("core.spawn.tasks", ratio(g(c1, "tasks_spawned"), ops_1w));
  r.set("core.steal.attempts", ratio(g(cn, "steal_attempts"), ops));
  r.set("core.steal.ok_ratio",
        ratio(g(cn, "steals_ok"), g(cn, "steal_attempts")));
  r.set("core.steal.tasks_per_steal",
        ratio(g(cn, "steal_tasks"), g(cn, "steals_ok")));
  r.set("core.steal.aggregation",
        ratio(g(cn, "requests_served"), g(cn, "combiner_rounds")));
  r.set("core.steal.thief_share",
        ratio(g(cn, "tasks_run_thief"),
              g(cn, "tasks_run_owner") + g(cn, "tasks_run_thief")));
  r.set("core.dataflow.scan_entries_per_steal",
        ratio(g(cn, "scan_entries"), g(cn, "steals_ok")));
  r.set("core.dataflow.readylist_pops", ratio(g(cn, "readylist_pops"), ops));
  r.set("core.foreach.chunks", ratio(g(cn, "foreach_chunks"), ops));
  r.set("core.park.parks", ratio(g(cn, "parks"), ops));
  r.set("core.park.wake_ratio", ratio(g(cn, "park_wakes"), g(cn, "parks")));
}

double empty_run_us(xk::Runtime& rt, Spans& spans) {
  constexpr int kRuns = 200;
  std::vector<double> us;
  us.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    const std::uint64_t t0 = now_ns();
    {
      Scope s(spans, "core.section.empty");
      rt.run([] {});
    }
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

}  // namespace pb
