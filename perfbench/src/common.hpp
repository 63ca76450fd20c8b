// Plumbing shared by the four workloads: clock, seeded generator, order
// statistics, the span recorder of the traced run, counter deltas, and the
// result that becomes the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/xkaapi.hpp"

namespace pb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secs_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// SplitMix64: every input the benchmark hands the program comes from one
/// of these, seeded from --seed.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Quantile with linear interpolation between closest ranks; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Spans of the traced run: name, start, end, parent span and a request id
/// (the job or solve a span belongs to). Kept in memory, written at exit.
/// Recorded only by the thread that drives the workload; spans measured on
/// other threads (service job bodies) are stamped there and added here.
class Spans {
 public:
  bool on = false;

  int open(const char* name, std::int64_t req = -1);
  void close(int id);
  int add(const char* name, int parent, std::uint64_t t0, std::uint64_t t1,
          std::int64_t req = -1);
  int top() const { return stack_.empty() ? -1 : stack_.back(); }
  std::size_t size() const { return spans_.size(); }

  /// Writes {"run":..., <extra members>, "spans":[[id,parent,name,t0,t1,
  /// req],...]} with times in ns since `origin`.
  bool write(const std::string& path, const std::string& run_id,
             std::uint64_t origin, const std::string& extra_members) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t t0, t1;
    std::int64_t req;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Spans& s, const char* name, std::int64_t req = -1)
      : s_(s), id_(s.open(name, req)) {}
  ~Scope() { s_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& s_;
  int id_;
};

/// Scheduler counters by name (Runtime::metrics_snapshot), and deltas.
using Counters = std::map<std::string, std::uint64_t>;
Counters counters(const xk::Runtime& rt);
Counters operator-(const Counters& a, const Counters& b);
std::string counters_json(const Counters& c);

/// A pool of `nworkers` with every other knob at its default.
xk::Config pool_config(unsigned nworkers);

/// Operation accounting plus the metrics of the final JSON line.
class Result {
 public:
  explicit Result(bool trace);

  /// One attempted operation. `program_ok` is false when the program itself
  /// reported a failure (nonzero info, a job not settled kDone);
  /// `output_ok` is false when its output fails the benchmark's check.
  /// Either counts the operation as failed; a wrong output also clears
  /// `correct`.
  void op(bool program_ok, bool output_ok, const char* what);

  /// A reference computation of the benchmark itself failed its check:
  /// nothing measured against it can be trusted.
  void bad_reference(const char* what);

  /// Sets an end-to-end metric (untraced run) or a per-layer metric
  /// (traced run); the name must be one of the declared ones.
  void set(const std::string& name, double value);

  /// Workload-specific figures printed on a `detail` line above the result.
  void detail(const std::string& name, double value, const char* unit);

  void print() const;

  /// The metrics set so far, as one JSON object (for the span file).
  std::string values_json() const;

 private:
  bool trace_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, const char*>> names_;  // name, unit
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> detail_;
};

/// Runs `round` until `seconds` have elapsed; whole rounds only, at least
/// one. Returns the number of rounds.
template <typename Fn>
int run_rounds(double seconds, Fn&& round) {
  const std::uint64_t t0 = now_ns();
  int n = 0;
  do {
    round();
    ++n;
  } while (secs_since(t0) < seconds);
  return n;
}

/// The measured part of a run. Untraced: `round` for the whole run length.
/// Traced: `round` untraced for half of it, then `mark` (the workload keeps
/// its untraced medians and snapshots counters), then `round` with spans on
/// for the other half. Returns the rounds of the last (traced) stretch.
template <typename Round, typename Mark>
int measure(const Args& a, Spans& spans, Round&& round, Mark&& mark) {
  if (!a.trace) return run_rounds(a.seconds, round);
  run_rounds(a.seconds / 2, round);
  mark();
  spans.on = true;
  return run_rounds(a.seconds / 2, round);
}

/// How many times each workload sets itself up; setup_s is the median.
inline constexpr int kSetups = 5;

/// Per-layer metrics every workload derives the same way from its traced
/// phase: steal, park and dataflow-scan ratios over the nproc pool's counter
/// delta `cn` for `ops` operations, and the spawn count per operation from
/// the 1-worker pool's delta `c1` for `ops_1w` operations.
void scheduler_metrics(Result& r, const Counters& cn, double ops,
                       const Counters& c1, double ops_1w);

/// Median wall time of an empty Runtime::run section on `rt`, in us.
double empty_run_us(xk::Runtime& rt, Spans& spans);

/// The workloads. Each fills `r`, records spans when `spans.on`, and
/// appends JSON members (counter deltas) for the span file to `extra`.
void run_fib(const Args& a, Result& r, Spans& spans, std::string& extra);
void run_cholesky(const Args& a, Result& r, Spans& spans, std::string& extra);
void run_epx(const Args& a, Result& r, Spans& spans, std::string& extra);
void run_service(const Args& a, Result& r, Spans& spans, std::string& extra);

}  // namespace pb
