#pragma once
// Shared pieces of the ASPEN benchmark: the workload interface the
// driver runs, opt-in host-time spans, and small statistics helpers.
//
// Spans are recorded from the benchmark's own files around calls into a
// layer's public API; when tracing is off a Scope reads no clock at all,
// so the untraced runs that produce the end-to-end metrics pay nothing.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Value of the q-quantile (0..1) by nearest rank; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Independent generator seed per input stream of one workload seed
/// (splitmix64 finalizer over seed and a stream tag).
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Host-time samples per span name, in seconds.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  void add(const std::string& name, double s) {
    if (on_) samples_[name].push_back(s);
  }
  /// Median sample of `name` (0 when the span never ran).
  [[nodiscard]] double median_s(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

 private:
  bool on_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Times the enclosing block into `spans` when tracing is on.
class Scope {
 public:
  Scope(Spans& spans, const char* name) : spans_(spans), name_(name) {
    if (spans_.on()) t0_ = Clock::now();
  }
  ~Scope() {
    if (spans_.on()) spans_.add(name_, seconds_since(t0_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  const char* name_;
  Clock::time_point t0_{};
};

/// Exact per-op figures of the simulated system. They are functions of
/// the inputs alone, so two runs with one seed must agree bit for bit.
struct SimPerOp {
  double sim_us = 0.0;     ///< simulated time of one op
  double energy_uj = 0.0;  ///< modelled accelerator energy of one op
  double sim_ops = 0.0;    ///< simulated instructions (or MVMs) of one op
};

/// One benchmark workload. The driver constructs a fresh instance per
/// set-up (inputs are generated in the constructor, outside every
/// timer), times setup(), then runs ops in a closed loop on the last
/// instance.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything a user pays before the first request (timed as setup_s).
  virtual void setup(Spans& spans) = 0;
  /// Untimed preparation of the output checks on the final instance.
  virtual void prepare() {}
  /// One request (timed).
  virtual void op(Spans& spans) = 0;
  /// Verify the last op's outputs (untimed); false counts as a failure.
  [[nodiscard]] virtual bool check_op() = 0;
  /// Once-per-run verification after the timed loops (untimed). Adds
  /// failures found by whole-run oracles to `failed`.
  virtual void verify(std::uint64_t& attempted, std::uint64_t& failed) = 0;
  [[nodiscard]] virtual SimPerOp sim_per_op() const = 0;
  /// Per-layer metrics of the traced run (replays included).
  virtual void layer_metrics(const Spans& setup_spans, const Spans& op_spans,
                             Metrics& out) = 0;
};

struct WorkloadArgs {
  std::uint64_t seed = 1;
  std::string self_exe;  ///< this binary, for campaign worker processes
};

std::unique_ptr<Workload> make_e6_workload(bool dma_stream,
                                           const WorkloadArgs& args);
std::unique_ptr<Workload> make_e7_workload(const WorkloadArgs& args);
std::unique_ptr<Workload> make_nn_workload(const WorkloadArgs& args);

/// Worker-process body of the e7 orchestrated leg.
int e7_campaign_worker(std::uint64_t seed);

}  // namespace perfbench
