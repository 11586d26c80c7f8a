// ASPEN benchmark driver. Runs one workload in a closed loop (one client,
// one thread) for a fixed time and prints, as its last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   aspen_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//   aspen_perfbench --campaign-worker --seed N   (e7 worker process)
//
// --trace 0 reports the end-to-end metrics. --trace 1 splits the time
// between an untraced and a traced loop, each with its own interleaved
// set-ups, and reports the per-layer metrics plus the tracing overhead as
// traced minus untraced for every end-to-end metric.
#include <malloc.h>
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace perfbench {
namespace {

/// Per-layer metrics every workload reports (0 where the layer is not on
/// the workload's path). Must match BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"system.construct_ms", "ms"},     {"system.restore_us", "us"},
    {"system.run_us", "us"},           {"cpu.instret", "count"},
    {"cpu.cpi", "cycles/inst"},        {"cpu.host_ns_per_inst", "ns"},
    {"cpu.blk_hit_rate", "frac"},      {"cpu.blk_built", "count"},
    {"cpu.blk_chained", "count"},      {"cpu.blk_evictions", "count"},
    {"cpu.blk_fallback_steps", "count"}, {"accel.start_us", "us"},
    {"core.multiply_noiseless_us", "us"}, {"system.run_minus_accel_us", "us"},
    {"accel.busy_cycles", "cycles"},   {"accel.busy_frac", "frac"},
    {"core.mvm_ops", "count"},         {"core.program_ops", "count"},
    {"core.set_weights_us", "us"},     {"core.multiply_us", "us"},
    {"lina.svd_us", "us"},             {"mesh.decompose_us", "us"},
    {"mesh.program_transfer_us", "us"}, {"nn.forward_us", "us"},
    {"nn.tiles_programmed", "count"},  {"nn.digital_us", "us"},
    {"campaign.golden_ms", "ms"},      {"campaign.ladder_ms", "ms"},
    {"campaign.us_per_trial", "us"},   {"trial.restore_fast_us", "us"},
    {"trial.simulate_us", "us"},       {"trial.classify_us", "us"},
    {"campaign.masked_frac", "frac"},  {"campaign.sdc_frac", "frac"},
    {"campaign.due_frac", "frac"},     {"io.serialize_shard_us", "us"},
    {"io.shard_bytes", "bytes"},       {"orch.launches", "count"},
    {"orch.progress_frames", "count"}, {"orch.failures", "count"},
    {"orch.retries", "count"},         {"orch.serial_fallbacks", "count"},
    {"orch_trials_per_s", "1/s"},      {"op_error_frac", "frac"},
};

/// Environment knobs that change the simulator's default program; the
/// benchmark measures the default and refuses to run under any of them.
const char* const kRefusedEnv[] = {"ASPEN_BLOCK_TIER", "ASPEN_BLOCK_CONSTFOLD",
                                   "ASPEN_BENCH_SMOKE"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool campaign_worker = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "aspen_perfbench: %s\nusage: aspen_perfbench --workload "
               "<e6_sw_gemm|e6_dma_stream|e7_campaign|nn_digits_b1> "
               "[--seed N] [--seconds S] [--trace 0|1]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--campaign-worker") {
      o.campaign_worker = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

volatile std::uint32_t probe_sink = 0;

/// Fixed host-speed reference with the simulator's three kinds of work:
/// branchy integer hashing over a 256 KiB table, complex 8x8
/// matrix-vector products, and a 1 MiB copy. It runs no ASPEN code, so
/// only the host can move it.
double probe_seconds() {
  using cplx = std::complex<double>;
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(64 * 1024);
    std::uint32_t x = 7;
    for (auto& v : t) v = x = x * 1664525u + 1013904223u;
    return t;
  }();
  static std::vector<char> src(1 << 20, 1), dst(1 << 20);
  std::array<cplx, 64> m;
  std::array<cplx, 8> v, y;
  // The unitary 8-point DFT keeps |v| fixed, far from overflow and denormals.
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = std::polar(1.0 / std::sqrt(8.0),
                      0.25 * M_PI * static_cast<double>((i / 8) * (i % 8)));
  v.fill(cplx{0.5, -0.25});

  const auto t0 = Clock::now();
  std::uint32_t x = 1;
  for (int i = 0; i < 50000; ++i) {
    x = x * 1664525u + 1013904223u;
    const std::uint32_t t = table[(x >> 8) & (table.size() - 1)];
    x ^= (t & 1) ? t : (t >> 3);
  }
  for (int i = 0; i < 2000; ++i) {
    for (std::size_t r = 0; r < 8; ++r) {
      cplx acc{0.0, 0.0};
      for (std::size_t c = 0; c < 8; ++c) acc += m[r * 8 + c] * v[c];
      y[r] = acc;
    }
    v = y;
  }
  std::memcpy(dst.data(), src.data(), src.size());
  probe_sink = x + static_cast<std::uint32_t>(dst[x & 1023]) +
               static_cast<std::uint32_t>(std::abs(v[0]) > 1.0);
  return seconds_since(t0);
}

/// Host times are reported at reference speed: the speed at which the
/// probe takes exactly this long.
constexpr double kProbeRefSeconds = 1e-3;

/// One slice of a closed loop, of fixed wall time.
struct Window {
  std::vector<double> op_s;     ///< op latencies, by op start
  std::vector<double> probe_s;  ///< host-speed probes taken in the window
  double setup_s = -1.0;        ///< the set-up timed at its start, if any
  /// Factor from this window's host speed to reference speed.
  [[nodiscard]] double to_ref() const {
    return probe_s.empty() ? 1.0 : kProbeRefSeconds / median(probe_s);
  }
};

/// Op latencies, set-up times and probes of one closed loop. The host is
/// shared and its speed swings by tens of percent for seconds at a time,
/// for minutes at a time. Every host time is therefore scaled to
/// reference speed by the probe of its own window, and each op statistic
/// is taken from the better-quartile window.
struct Loop {
  std::vector<Window> windows;
  std::uint64_t attempted = 0, failed = 0;
  double rss_mb = 0.0;

  [[nodiscard]] std::size_t ops() const {
    std::size_t n = 0;
    for (const auto& w : windows) n += w.op_s.size();
    return n;
  }
  /// `stat` (at reference speed) of the better-quartile window: the lower
  /// quartile of the per-window values, or the upper one when higher is
  /// better, over the windows with at least 20 ops (every non-empty
  /// window when none has). This skips disturbed windows without hinging
  /// on a single lucky one.
  template <class Stat>
  [[nodiscard]] double best(Stat stat, bool lower_is_better) const {
    const std::size_t min_ops =
        std::any_of(windows.begin(), windows.end(),
                    [](const Window& w) { return w.op_s.size() >= 20; })
            ? 20
            : 1;
    std::vector<double> v;
    for (const Window& w : windows)
      if (w.op_s.size() >= min_ops) v.push_back(stat(w));
    return quantile(v, lower_is_better ? 0.25 : 0.75);
  }
  /// Median set-up time at reference speed.
  [[nodiscard]] double setup_s() const {
    std::vector<double> v;
    for (const Window& w : windows)
      if (w.setup_s >= 0.0) v.push_back(w.setup_s * w.to_ref());
    return median(v);
  }
};

/// Closed loop of ops for `seconds`. At the start of every window
/// `timed_setup` runs between ops and returns the set-up's seconds; the
/// probe runs then and every fifth of a window after.
Loop run_loop(Workload& w, double seconds, double window_s, Spans& spans,
              const std::function<double()>& timed_setup) {
  Loop l;
  l.windows.resize(static_cast<std::size_t>(std::ceil(seconds / window_s)));
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration<double>(seconds);
  std::size_t next_window = 0;
  double next_probe = 0.0;
  do {
    const double at = seconds_since(start);
    const auto k = std::min(static_cast<std::size_t>(at / window_s),
                            l.windows.size() - 1);
    Window& win = l.windows[k];
    if (k >= next_window) {
      win.setup_s = timed_setup();
      next_window = k + 1;
      next_probe = at;
    }
    if (at >= next_probe) {
      win.probe_s.push_back(probe_seconds());
      next_probe = at + window_s / 5;
    }
    const auto t0 = Clock::now();
    w.op(spans);
    win.op_s.push_back(seconds_since(t0));
    ++l.attempted;
    if (!w.check_op()) ++l.failed;
  } while (Clock::now() < stop);
  l.rss_mb = peak_rss_mb();
  return l;
}

Metrics end_to_end(const Loop& l, const SimPerOp& sim) {
  const double ops_per_s = l.best(
      [](const Window& w) {
        double total = 0.0;
        for (const double s : w.op_s) total += s;
        return static_cast<double>(w.op_s.size()) / (total * w.to_ref());
      },
      false);
  const auto op_ms = [](double q) {
    return [q](const Window& w) { return quantile(w.op_s, q) * w.to_ref() * 1e3; };
  };
  Metrics m;
  m["setup_s"] = {l.setup_s(), "s"};
  m["ops_per_s"] = {ops_per_s, "1/s"};
  m["op_ms_p50"] = {l.best(op_ms(0.5), true), "ms"};
  m["op_ms_p90"] = {l.best(op_ms(0.9), true), "ms"};
  m["sim_mips"] = {sim.sim_ops * ops_per_s / 1e6, "MIPS"};
  m["sim_us_per_op"] = {sim.sim_us, "sim_us"};
  m["sim_energy_uj_per_op"] = {sim.energy_uj, "uJ"};
  m["peak_rss_mb"] = {l.rss_mb, "MB"};
  return m;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadArgs& args) {
  if (name == "e6_sw_gemm") return make_e6_workload(false, args);
  if (name == "e6_dma_stream") return make_e6_workload(true, args);
  if (name == "e7_campaign") return make_e7_workload(args);
  if (name == "nn_digits_b1") return make_nn_workload(args);
  usage(("unknown workload '" + name + "'").c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(const Options& o, const char* self_exe) {
  for (const char* var : kRefusedEnv)
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "aspen_perfbench: %s is set; the benchmark measures the "
                   "default program and refuses to run\n",
                   var);
      return 2;
    }
  // Pin glibc's mmap threshold at its start-up value. Left dynamic, it
  // rises after the first large free, and whether a later set-up's 4 MiB
  // DRAM image then comes from fresh pages or from the heap depends on
  // what ran before; pinned, every set-up pays what a fresh process pays.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const WorkloadArgs args{o.seed, self_exe};
  Spans off(false), setup_spans(true), op_spans(true);

  // The instance the ops run on; set-up samples come from throwaway
  // instances, one per window.
  std::unique_ptr<Workload> w = make_workload(o.workload, args);
  w->setup(off);
  w->prepare();
  const auto throwaway_setup = [&](Spans& spans) {
    const std::unique_ptr<Workload> fresh = make_workload(o.workload, args);
    const auto t = Clock::now();
    fresh->setup(spans);
    return seconds_since(t);
  };

  const double loop_s = o.trace ? o.seconds / 2 : o.seconds;
  const double window_s = o.seconds / 20;
  const Loop plain = run_loop(*w, loop_s, window_s, off,
                              [&] { return throwaway_setup(off); });
  Loop traced;
  if (o.trace)
    traced = run_loop(*w, loop_s, window_s, op_spans,
                      [&] { return throwaway_setup(setup_spans); });
  std::uint64_t attempted = plain.attempted + traced.attempted;
  std::uint64_t failed = plain.failed + traced.failed;
  w->verify(attempted, failed);
  const SimPerOp sim = w->sim_per_op();
  const Metrics e2e = end_to_end(plain, sim);

  Metrics out;
  if (!o.trace) {
    out = e2e;
  } else {
    w->layer_metrics(setup_spans, op_spans, out);
    const std::set<std::string> known = [] {
      std::set<std::string> s;
      for (const auto& [name, unit] : kLayerMetrics) s.insert(name);
      return s;
    }();
    for (const auto& [name, m] : out)
      if (known.count(name) == 0)
        throw std::logic_error("undeclared per-layer metric " + name);
    for (const auto& [name, unit] : kLayerMetrics)
      if (out.count(name) == 0) out[name] = {0.0, unit};
    out["op_error_frac"] = {static_cast<double>(failed) /
                                static_cast<double>(attempted),
                            "frac"};
    for (const auto& [name, m] : end_to_end(traced, sim))
      out["trace_overhead." + name] = {m.value - e2e.at(name).value, m.unit};
  }

  bool finite = true;
  for (const auto& [name, m] : out) finite = finite && std::isfinite(m.value);
  std::printf("workload=%s seed=%llu ops=%zu traced_ops=%zu failed=%llu "
              "op_error_frac=%.6g\nwindows, measured op p50 ms/probe ms (ops):",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              plain.ops(), traced.ops(), static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (const Window& win : plain.windows)
    std::printf(" %.4g/%.4g (%zu)", median(win.op_s) * 1e3,
                median(win.probe_s) * 1e3, win.op_s.size());
  std::printf("\n");
  print_result(finite && failed == 0, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  try {
    if (o.campaign_worker) return e7_campaign_worker(o.seed);
    if (o.workload.empty()) usage("--workload is required");
    return run(o, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aspen_perfbench: %s\n", e.what());
    return 1;
  }
}
