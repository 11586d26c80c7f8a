// Fault-campaign throughput benchmark: per-trial setup cost, checkpoint
// ladders, trial sharding across threads, and the supervised worker-pool
// orchestrator. PR 3 left e7-style campaigns floored by per-trial System
// construction (DRAM allocation + SVD/Clements weight programming); the
// snapshot/restore path stages the platform once and restores it per
// trial (copying only what changed), FaultCampaign::run_trials shards the
// restored trials across threads, and the checkpoint ladder reuses the
// fault-free golden prefix so a trial injecting at cycle c no longer
// re-simulates [0, c) from scratch. Process fan-out goes through
// CampaignOrchestrator: shards stream to forked workers over pipes (no
// temp files), lost workers are retried with backoff, and every
// accelerated path (ladder, threads, worker pool, the multi-axis sweep)
// is verified bit-identical to the serial oracle before any number is
// reported.
//
// Modes:
//   (default)            full benchmark; emits BENCH_campaign.json
//   --campaign-worker    worker body: one CampaignShard on stdin (to
//                        EOF), heartbeat/progress frames + the final
//                        histogram frame on stdout (campaign_io framing)
//   --campaign-worker --chaos=crash|hang|corrupt
//                        sabotaged worker for supervision drills: raise
//                        SIGKILL mid-shard / hang past the heartbeat
//                        deadline / emit a truncated histogram
//   --orchestrator-smoke CI job: 4-worker multi-axis sweep with one
//                        deliberately crashed worker attempt; asserts
//                        the merged histograms match the serial run
//                        bit-for-bit and writes BENCH_campaign.json
//
// Standalone (chrono-based); emits BENCH_campaign.json for CI artifacts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "lina/random.hpp"
#include "sysim/campaign_io.hpp"
#include "sysim/campaign_orchestrator.hpp"
#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

#if defined(__unix__)
#include <csignal>
#include <unistd.h>
#endif

namespace {

using namespace aspen;
using namespace aspen::sys;
using Clock = std::chrono::steady_clock;

std::vector<bench::BenchRow> rows;

std::vector<std::int16_t> random_fixed(std::size_t count, std::uint64_t seed) {
  lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  return v;
}

void push_row(const std::string& name, double value, const char* unit,
              int size = 8) {
  std::printf("%-44s %12.1f %s\n", name.c_str(), value, unit);
  rows.push_back({name, value, size, unit});
}

/// The e7 workload every process builds, parameterized by the sweep cell:
/// the shipped snapshot is only adoptable because coordinator and worker
/// construct byte-identical platforms from the same SweepPoint.
struct Workload {
  SystemConfig base;
  GemmWorkload wl;
  std::vector<std::int16_t> a, x;
  std::vector<std::uint32_t> program;
  static constexpr std::uint64_t kMaxCycles = 500000;

  explicit Workload(const SweepPoint& p = {}) {
    base.accel.gemm.mvm.ports = 8;
    base.accel.max_cols = 64;
    base.dram_size = 1u << 18;  // the workload fits in 256 KiB
    base.accel.gemm.mvm.weights = p.pcm_weights
                                      ? core::WeightTechnology::kPcm
                                      : core::WeightTechnology::kThermoOptic;
    base.accel.gemm.mvm.pcm_drift_time_s = p.pcm_drift_time_s;
    base.accel.gemm.mvm.detector.temperature_k = p.temperature_k;
    base.accel.gemm.mvm.adc.bits = p.adc_bits;
    wl.n = 8;
    wl.m = 8;
    a = random_fixed(wl.n * wl.n, 41);
    x = random_fixed(wl.n * wl.m, 42);
    program = build_gemm_offload(wl, base, OffloadPath::kMmrInterrupt);
  }

  [[nodiscard]] FaultCampaign::SystemFactory factory() const {
    return [this]() {
      auto system = std::make_unique<System>(base);
      stage_gemm_data(*system, wl, a, x);
      system->load_program(program);
      return system;
    };
  }
  [[nodiscard]] FaultCampaign::OutputReader reader() const {
    return [this](System& s) {
      const auto y = read_gemm_result(s, wl);
      std::vector<std::uint8_t> bytes(y.size() * 2);
      std::memcpy(bytes.data(), y.data(), bytes.size());
      return bytes;
    };
  }
};

/// Worker-side half of the sweep contract: rebuild the platform for the
/// shard's cell. The shared_ptr keeps the Workload alive inside the
/// returned factory.
PointFactory point_factory() {
  return [](const SweepPoint& p) -> FaultCampaign::SystemFactory {
    auto w = std::make_shared<Workload>(p);
    return [w]() {
      auto system = std::make_unique<System>(w->base);
      stage_gemm_data(*system, w->wl, w->a, w->x);
      system->load_program(w->program);
      return system;
    };
  };
}

/// The PR 3 trial: construct the full system, run, classify — using the
/// campaign's own injection/classification logic so this baseline can
/// never drift from what FaultCampaign measures.
Outcome rebuild_trial(const FaultCampaign::SystemFactory& factory,
                      const FaultCampaign::OutputReader& read_output,
                      const std::vector<std::uint8_t>& golden,
                      std::uint64_t max_cycles, const FaultSpec& spec) {
  auto system = factory();
  system->run_until(std::min(spec.cycle, max_cycles));
  FaultCampaign::inject(*system, spec);
  system->run_until(max_cycles);
  return FaultCampaign::classify(*system, read_output, golden);
}

bool same_hist(const CampaignResult& a, const CampaignResult& b) {
  return a.counts == b.counts && a.total == b.total;
}

std::string point_label(const SweepPoint& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "c%u[%s/%s d=%gs T=%gK b=%d]", p.cell,
                to_string(p.target).c_str(), to_string(p.model).c_str(),
                p.pcm_drift_time_s, p.temperature_k, p.adc_bits);
  return buf;
}

#if defined(__unix__)

/// Sabotaged worker bodies for supervision drills. Each reads the shard
/// and emits one honest heartbeat first, so the orchestrator sees a
/// live worker before the fault lands — the realistic failure shape.
int run_chaos_worker(const std::string& mode) {
  std::signal(SIGPIPE, SIG_IGN);
  const CampaignShard shard = deserialize_shard(io::read_all(0));
  (void)io::write_frame(
      1, serialize_progress({shard.seq, 0, shard.specs.size()}));
  if (mode == "crash") std::raise(SIGKILL);  // worker lost mid-shard
  if (mode == "hang")
    for (;;) ::pause();  // heartbeat deadline must reap this
  if (mode == "corrupt") {
    // A truncated histogram payload: framing is intact, the body is not.
    std::vector<std::uint8_t> bad = serialize_histogram({});
    bad.resize(bad.size() / 2);
    (void)io::write_frame(1, bad);
    return 0;
  }
  std::fprintf(stderr, "bench_campaign: unknown chaos mode '%s'\n",
               mode.c_str());
  return 2;
}

std::function<void(const std::string&)> stderr_log() {
  return [](const std::string& m) {
    std::fprintf(stderr, "[orchestrator] %s\n", m.c_str());
  };
}

/// The CI smoke sweep: small multi-axis grid, 4 workers, one attempt
/// deliberately crashed. Returns false if any cell diverges from the
/// serial oracle or the crash was not retried.
bool run_sweep(const char* exe, unsigned max_workers, bool chaos_crash,
               const SweepAxes& axes, const SweepRunConfig& rc) {
  SweepGrid grid(axes, point_factory(), Workload{}.reader(),
                 Workload::kMaxCycles);

  const auto s0 = Clock::now();
  const std::vector<SweepCell> serial = grid.run_serial(rc);
  const double serial_s =
      std::chrono::duration<double>(Clock::now() - s0).count();

  OrchestratorConfig oc;
  oc.max_workers = max_workers;
  oc.max_attempts = 3;
  oc.heartbeat_timeout_ms = 120'000;  // hang detector, not a pace car
  oc.worker_argv = {exe, "--campaign-worker"};
  if (chaos_crash)
    oc.worker_command = [exe](std::uint64_t seq, unsigned attempt) {
      std::vector<std::string> argv = {exe, "--campaign-worker"};
      if (seq == 0 && attempt == 0) argv.push_back("--chaos=crash");
      return argv;
    };
  oc.log = stderr_log();

  CampaignOrchestrator::Stats stats;
  const auto t0 = Clock::now();
  const std::vector<SweepCell> swept = grid.run(rc, oc, &stats);
  const double swept_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  bool ok = true;
  std::uint64_t total_trials = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SweepCell& cell = swept[i];
    total_trials += static_cast<std::uint64_t>(cell.hist.total);
    if (!same_hist(cell.hist, serial[i].hist)) {
      std::fprintf(stderr,
                   "bench_campaign: sweep %s diverged from the serial "
                   "oracle\n",
                   point_label(cell.point).c_str());
      ok = false;
    }
    const std::string label = "sweep_" + point_label(cell.point);
    const auto count = [&](Outcome o) {
      const auto it = cell.hist.counts.find(o);
      return it == cell.hist.counts.end() ? 0 : it->second;
    };
    push_row(label + " masked", count(Outcome::kMasked), "trials",
             static_cast<int>(cell.point.cell));
    push_row(label + " sdc", count(Outcome::kSdc), "trials",
             static_cast<int>(cell.point.cell));
    push_row(label + " due", count(Outcome::kDueTrap) + count(Outcome::kDueHang),
             "trials", static_cast<int>(cell.point.cell));
  }
  if (chaos_crash && stats.retries == 0) {
    std::fprintf(stderr,
                 "bench_campaign: crashed worker was never retried\n");
    ok = false;
  }
  push_row("sweep_orchestrated",
           static_cast<double>(total_trials) / swept_s, "trials/s");
  push_row("sweep_serial_oracle",
           static_cast<double>(total_trials) / serial_s, "trials/s");
  push_row("sweep_worker_launches", stats.launches, "procs");
  push_row("sweep_worker_retries", stats.retries, "procs");
  push_row("sweep_serial_fallbacks", stats.serial_fallbacks, "shards");
  std::printf("sweep: %zu cells, %llu trials, %u launches, %u retries\n",
              swept.size(), static_cast<unsigned long long>(total_trials),
              stats.launches, stats.retries);
  return ok;
}

int run_orchestrator_smoke(const char* exe) {
  bench::header(
      "BENCH campaign --orchestrator-smoke — supervised worker pool drill",
      "4-worker multi-axis sweep with one deliberately crashed worker; "
      "the retry path must reproduce the serial histograms bit-for-bit");
  SweepAxes axes;
  axes.faults = {{FaultTarget::kCpuRegfile, FaultModel::kTransientFlip},
                 {FaultTarget::kAccelPhase, FaultModel::kTransientFlip}};
  axes.adc_bits = {8, 6};
  SweepRunConfig rc;
  rc.trials_per_cell = 8;
  rc.shards_per_cell = 2;
  const bool ok = run_sweep(exe, 4, /*chaos_crash=*/true, axes, rc);
  bench::json_report("BENCH_campaign.json", rows);
  std::printf("\nwrote BENCH_campaign.json (%zu rows)\n", rows.size());
  return ok ? 0 : 1;
}

#endif  // __unix__

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--campaign-worker") == 0) {
#if defined(__unix__)
    try {
      if (argc > 2 && std::strncmp(argv[2], "--chaos=", 8) == 0)
        return run_chaos_worker(argv[2] + 8);
      return campaign_worker_main(0, 1, point_factory(), Workload{}.reader());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_campaign worker: %s\n", e.what());
      return 1;
    }
#else
    return 1;
#endif
  }
#if defined(__unix__)
  if (argc > 1 && std::strcmp(argv[1], "--orchestrator-smoke") == 0)
    return run_orchestrator_smoke(argv[0]);
#endif

  bench::header(
      "BENCH campaign — checkpoint ladder + supervised worker-pool trials",
      "Sec.5 reliability campaigns need thousands of trials; this tracks "
      "per-trial setup (construct vs restore), golden-"
      "prefix reuse via the checkpoint ladder, and trials/sec scaling "
      "across threads and a supervised worker pool, with every "
      "accelerated path's verdicts asserted bit-identical to the serial "
      "oracle");

  const Workload w;
  const FaultCampaign::SystemFactory factory = w.factory();
  const FaultCampaign::OutputReader read_y = w.reader();
  constexpr std::uint64_t kMaxCycles = Workload::kMaxCycles;
  constexpr unsigned kLadderRungs = 16;

  FaultCampaign campaign(factory, read_y, kMaxCycles);
  lina::Rng rng(77);
  const int trials = bench::samples(160, 12);
  // A mixed spec batch: register + DRAM + photonic-phase faults, the
  // spread an e7 campaign sweeps.
  std::vector<FaultSpec> specs;
  for (const FaultTarget t : {FaultTarget::kCpuRegfile,
                              FaultTarget::kDramData,
                              FaultTarget::kAccelPhase}) {
    const auto part =
        campaign.sample_specs(t, FaultModel::kTransientFlip, trials / 3, rng);
    specs.insert(specs.end(), part.begin(), part.end());
  }

  // -- Per-trial setup cost in isolation --------------------------------
  {
    const int reps = bench::samples(40, 4);
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      auto system = factory();
      (void)system->now();
    }
    const double construct_us =
        std::chrono::duration<double>(Clock::now() - t0).count() / reps * 1e6;
    push_row("trial_setup_construct", construct_us, "us");

    auto system = factory();
    const System::SystemSnapshot snap = system->snapshot();
    const auto t1 = Clock::now();
    for (int i = 0; i < reps; ++i) system->restore(snap);
    const double restore_us =
        std::chrono::duration<double>(Clock::now() - t1).count() / reps * 1e6;
    push_row("trial_setup_restore", restore_us, "us");
    push_row("trial_setup_speedup", construct_us / restore_us, "x");
  }

  // -- Campaign throughput ----------------------------------------------
  const auto golden = campaign.golden();
  const auto timed = [&](const char* name, const auto& fn) {
    const auto t0 = Clock::now();
    std::vector<Outcome> out = fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const double tps = static_cast<double>(out.size()) / s;
    push_row(name, tps, "trials/s");
    return std::make_pair(out, tps);
  };

  const auto [rebuilt, rebuild_tps] = timed("campaign_rebuild_serial", [&] {
    std::vector<Outcome> out;
    out.reserve(specs.size());
    for (const FaultSpec& spec : specs)
      out.push_back(rebuild_trial(factory, read_y, golden, kMaxCycles, spec));
    return out;
  });
  const auto [restored, restore_tps] = timed("campaign_restore_serial", [&] {
    return campaign.run_trials(specs, 1);
  });
  if (rebuilt != restored) {
    std::fprintf(stderr,
                 "bench_campaign: restore path diverged from rebuild path\n");
    return 1;
  }

  double best_parallel_tps = restore_tps;
  for (const unsigned threads : {2u, 4u, 8u}) {
    char name[48];
    std::snprintf(name, sizeof name, "campaign_restore_t%u", threads);
    const auto [par, par_tps] =
        timed(name, [&] { return campaign.run_trials(specs, threads); });
    if (par != restored) {
      std::fprintf(stderr,
                   "bench_campaign: %u-thread verdicts diverged from serial\n",
                   threads);
      return 1;
    }
    best_parallel_tps = std::max(best_parallel_tps, par_tps);
  }

  // -- Checkpoint ladder: golden-prefix reuse ---------------------------
  campaign.build_ladder(kLadderRungs);
  const auto [laddered, ladder_tps] = timed("campaign_ladder", [&] {
    return campaign.run_trials(specs, 1);
  });
  if (laddered != restored) {
    std::fprintf(stderr,
                 "bench_campaign: ladder verdicts diverged from rung-0\n");
    return 1;
  }
  push_row("campaign_ladder_speedup", ladder_tps / restore_tps, "x");

#if defined(__unix__)
  // -- Supervised worker pool (pipes, no temp files) --------------------
  {
    const std::vector<CampaignShard> shards =
        plan_shards(campaign, specs, 2, kLadderRungs);
    std::vector<ShardTask> tasks;
    for (const CampaignShard& shard : shards) {
      ShardTask t;
      t.seq = shard.seq;
      t.trials = shard.specs.size();
      t.payload = serialize_shard(shard);
      tasks.push_back(std::move(t));
    }
    OrchestratorConfig oc;
    oc.max_workers = 2;
    oc.worker_argv = {argv[0], "--campaign-worker"};
    oc.heartbeat_timeout_ms = 120'000;
    CampaignOrchestrator orch(oc, [&](const CampaignShard& shard) {
      return histogram_of(campaign.run_trials(shard.specs, 1));
    });
    const auto t0 = Clock::now();
    const std::vector<ShardOutcome> outs = orch.run(tasks);
    const double fanout_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::vector<CampaignResult> parts;
    for (const ShardOutcome& o : outs) {
      if (!o.completed) {
        std::fprintf(stderr, "bench_campaign: shard %llu never completed\n",
                     static_cast<unsigned long long>(o.seq));
        return 1;
      }
      parts.push_back(o.hist);
    }
    if (!same_hist(merge_histograms(parts), histogram_of(restored))) {
      std::fprintf(stderr,
                   "bench_campaign: merged worker-pool histogram diverged "
                   "from serial\n");
      return 1;
    }
    push_row("campaign_orchestrated_2w",
             static_cast<double>(specs.size()) / fanout_s, "trials/s");
  }

  // -- Multi-axis sweep through the same pool ---------------------------
  {
    SweepAxes axes;
    axes.faults = {{FaultTarget::kCpuRegfile, FaultModel::kTransientFlip},
                   {FaultTarget::kAccelPhase, FaultModel::kTransientFlip}};
    axes.pcm_drift_times_s = bench::smoke_mode()
                                 ? std::vector<double>{0.0}
                                 : std::vector<double>{0.0, 3600.0};
    axes.adc_bits =
        bench::smoke_mode() ? std::vector<int>{8} : std::vector<int>{8, 6};
    SweepRunConfig rc;
    rc.trials_per_cell = bench::samples(24, 6);
    rc.shards_per_cell = 2;
    if (!run_sweep(argv[0], 4, /*chaos_crash=*/false, axes, rc)) return 1;
  }
#endif

  push_row("campaign_restore_speedup", restore_tps / rebuild_tps, "x");
  push_row("campaign_t8_vs_rebuild_speedup", best_parallel_tps / rebuild_tps,
           "x");
  std::printf("(host threads available: %u)\n",
              std::thread::hardware_concurrency());

  bench::json_report("BENCH_campaign.json", rows);
  std::printf("\nwrote BENCH_campaign.json (%zu rows)\n", rows.size());
  return 0;
}
