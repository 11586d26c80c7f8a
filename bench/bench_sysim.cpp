// Sysim execution-core benchmarks: end-to-end workload and fault-campaign
// wall time under the legacy engine (decode-every-fetch interpreter +
// per-cycle System ticking, the seed behavior) vs the optimized engine
// (block translation tier + DRAM fast path + event-driven bulk cycle
// skipping). The two paths are pinned bit-identical by
// tests/test_sysim_diff.cpp, so the speedup rows are apples-to-apples.
//
// Workload rows time System::run() on a pre-staged system — platform
// construction (DRAM allocation, photonic mesh build) is identical in
// both modes and excluded. The fault-campaign row is timed end-to-end
// exactly as FaultCampaign users experience it, per-trial system
// construction included. Standalone (chrono-based); emits
// BENCH_sysim.json for CI artifacts.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "bench_util.hpp"
#include "lina/random.hpp"
#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

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

void push_row(const char* name, int size, double value, const char* unit) {
  std::printf("%-36s n=%-3d %12.2f %s\n", name, size, value, unit);
  rows.push_back({name, value, size, unit});
}

void record_speedup(const char* name, int size, double legacy_us,
                    double fast_us) {
  push_row(name, size, legacy_us / fast_us, "x");
}

/// Execution tiers under test: the seed's decode-every-fetch interpreter
/// with per-cycle ticking, and the event-driven basic-block translation
/// tier (block cache + chaining + static runs). Both are pinned
/// bit-identical by tests/test_sysim_diff.cpp.
SystemConfig tier_config(const SystemConfig& base, bool legacy) {
  SystemConfig sc = base;
  sc.event_driven = !legacy;
  sc.cpu.legacy_decode = legacy;
  return sc;
}

struct Workload {
  SystemConfig sc;
  GemmWorkload wl;   ///< staged extent (m covers all streamed tiles)
  std::vector<std::uint32_t> program;
  std::vector<std::int16_t> a, x;
};

/// Staging callback: writes data + program into a fresh system.
using Stager = std::function<void(System&)>;

/// One fresh-system execution; returns simulated cycles and optionally
/// the block-tier counters of the run.
std::uint64_t probe_run(const Stager& stage, const SystemConfig& sc,
                        rv::BlockStats* stats = nullptr) {
  System system(sc);
  stage(system);
  const auto r = system.run();
  if (r.halt != rv::Halt::kEcallExit) {
    std::fprintf(stderr, "bench_sysim: workload did not exit cleanly\n");
    std::exit(1);
  }
  if (stats != nullptr) *stats = system.cpu().block_stats();
  return r.cycles;
}

std::uint64_t probe_run(const Workload& w, const SystemConfig& sc,
                        rv::BlockStats* stats = nullptr) {
  return probe_run(
      [&](System& system) {
        stage_gemm_data(system, w.wl, w.a, w.x);
        system.load_program(w.program);
      },
      sc, stats);
}

/// Run-only wall time, averaged over enough repetitions to fill the
/// measurement budget. The system is staged once and snapshot/restored
/// per rep (outside the timed window): restore keeps each engine's
/// set_matrix programming memo and the CPU's translated blocks warm, so after the warm-up rep every row measures
/// steady-state execution, not weight-calibration math or re-decoding.
double record_runs(const char* name, std::size_t n, const Stager& stage,
                   const SystemConfig& sc) {
  System system(sc);
  stage(system);
  const System::SystemSnapshot snap = system.snapshot();
  const auto run_once = [&]() {
    system.restore(snap);
    const auto t0 = Clock::now();
    const auto r = system.run();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (r.halt != rv::Halt::kEcallExit) {
      std::fprintf(stderr, "bench_sysim: workload did not exit cleanly\n");
      std::exit(1);
    }
    return s;
  };
  const double once = run_once();  // warm up (fills programming memos)
  const double budget = bench::smoke_mode() ? 0.005 : 0.25;
  int reps = once > 0.0 ? static_cast<int>(budget / once) : 100;
  if (reps < 1) reps = 1;
  if (reps > 2000) reps = 2000;
  double total = 0.0;
  for (int i = 0; i < reps; ++i) total += run_once();
  const double us = total / reps * 1e6;
  std::printf("%-36s n=%-3zu %12.1f us/run  (%d reps)\n", name, n, us, reps);
  rows.push_back({name, us, static_cast<int>(n), "us/run"});
  return us;
}

double record_runs(const char* name, const Workload& w,
                   const SystemConfig& sc) {
  return record_runs(
      name, w.wl.n,
      [&](System& system) {
        stage_gemm_data(system, w.wl, w.a, w.x);
        system.load_program(w.program);
      },
      sc);
}

/// One workload on both tiers; asserts identical simulated cycle counts
/// (cheap guard on top of the differential test suite) and emits the
/// block tier's counters from a single fresh run.
void bench_workload(const char* tag, const Workload& w,
                    const char* speedup_name) {
  const SystemConfig legacy_sc = tier_config(w.sc, true);
  const SystemConfig block_sc = tier_config(w.sc, false);
  const std::uint64_t legacy_cycles = probe_run(w, legacy_sc);
  rv::BlockStats st;
  const std::uint64_t block_cycles = probe_run(w, block_sc, &st);
  if (legacy_cycles != block_cycles) {
    std::fprintf(stderr, "bench_sysim: cycle mismatch on %s (%llu / %llu)\n",
                 tag, static_cast<unsigned long long>(legacy_cycles),
                 static_cast<unsigned long long>(block_cycles));
    std::exit(1);
  }

  const double legacy_us =
      record_runs((std::string(tag) + "_legacy").c_str(), w, legacy_sc);
  const double block_us =
      record_runs((std::string(tag) + "_block").c_str(), w, block_sc);
  record_speedup(speedup_name, static_cast<int>(w.wl.n), legacy_us, block_us);

  const int n = static_cast<int>(w.wl.n);
  const std::string t(tag);
  rows.push_back({t + "_blk_built", static_cast<double>(st.blocks_built), n,
                  "blocks"});
  rows.push_back({t + "_blk_chained", static_cast<double>(st.chained), n,
                  "dispatches"});
  rows.push_back({t + "_blk_evictions", static_cast<double>(st.evictions), n,
                  "evictions"});
  rows.push_back({t + "_blk_hit_rate", 100.0 * st.hit_rate(), n, "%"});
  rows.push_back({t + "_rvc_built", static_cast<double>(st.rvc_built), n,
                  "insts"});
  rows.push_back({t + "_rvc_fetch_bytes", static_cast<double>(st.fetch_bytes),
                  n, "bytes"});
  std::printf(
      "  (cycles: %llu both tiers; blocks built %llu, dispatches %llu, "
      "chained %llu, rvc %llu insts / %llu fetch bytes, "
      "evictions %llu, fallback steps %llu, hit rate %.1f%%)\n\n",
      static_cast<unsigned long long>(block_cycles),
      static_cast<unsigned long long>(st.blocks_built),
      static_cast<unsigned long long>(st.dispatches),
      static_cast<unsigned long long>(st.chained),
      static_cast<unsigned long long>(st.rvc_built),
      static_cast<unsigned long long>(st.fetch_bytes),
      static_cast<unsigned long long>(st.evictions),
      static_cast<unsigned long long>(st.fallback_steps),
      100.0 * st.hit_rate());
}

SystemConfig base_system() {
  SystemConfig sc;
  sc.accel.gemm.mvm.ports = 8;
  sc.accel.max_cols = 64;
  return sc;
}

Workload make_workload(SystemConfig sc, std::size_t m,
                       std::vector<std::uint32_t> program) {
  Workload w;
  w.sc = sc;
  w.wl.n = 8;
  w.wl.m = m;
  w.program = std::move(program);
  w.a = random_fixed(w.wl.n * w.wl.n, 1000 + m);
  w.x = random_fixed(w.wl.n * w.wl.m, 2000 + m);
  return w;
}

void bench_rvc_loop() {
  // RVC-dense scramble/checksum loop: the hot loop is almost entirely
  // 2-byte forms (c.lw/c.sw, c.addi, CA/CB ALU ops), so this tracks
  // mixed 2/4-byte fetch, block building over compressed runs, and the
  // compressed-fetch counters on both tiers.
  const SystemConfig base = base_system();
  const std::uint32_t words = 256;
  const std::uint32_t src_off = 0x40000, dst_off = 0x48000;
  const auto program = build_rvc_loop(base, src_off, dst_off, words);
  std::vector<std::uint32_t> data(words);
  for (std::uint32_t i = 0; i < words; ++i) data[i] = 0x9E3779B9u * (i + 1);
  const Stager stage = [&](System& system) {
    system.write_dram(src_off,
                      reinterpret_cast<const std::uint8_t*>(data.data()),
                      words * 4);
    system.load_program(program);
  };

  const SystemConfig legacy_sc = tier_config(base, true);
  const SystemConfig block_sc = tier_config(base, false);
  const std::uint64_t legacy_cycles = probe_run(stage, legacy_sc);
  rv::BlockStats st;
  const std::uint64_t block_cycles = probe_run(stage, block_sc, &st);
  if (legacy_cycles != block_cycles) {
    std::fprintf(stderr,
                 "bench_sysim: cycle mismatch on rvc_loop (%llu / %llu)\n",
                 static_cast<unsigned long long>(legacy_cycles),
                 static_cast<unsigned long long>(block_cycles));
    std::exit(1);
  }

  const double legacy_us = record_runs("rvc_loop_legacy", words, stage,
                                       legacy_sc);
  const double block_us = record_runs("rvc_loop_block", words, stage,
                                      block_sc);
  record_speedup("rvc_loop_speedup", static_cast<int>(words), legacy_us,
                 block_us);

  const int n = static_cast<int>(words);
  rows.push_back({"rvc_loop_rvc_built", static_cast<double>(st.rvc_built), n,
                  "insts"});
  rows.push_back({"rvc_loop_rvc_fetch_bytes",
                  static_cast<double>(st.fetch_bytes), n, "bytes"});
  // Fetch bytes relative to an all-4-byte encoding of the same blocks
  // (fetch_bytes = 2*rvc + 4*rest, so the inst count is recoverable).
  const std::uint64_t insts =
      st.rvc_built + (st.fetch_bytes - 2 * st.rvc_built) / 4;
  const double density =
      insts != 0 ? 100.0 * static_cast<double>(st.fetch_bytes) /
                       (4.0 * static_cast<double>(insts))
                 : 100.0;
  push_row("rvc_loop_fetch_density", n, density, "%");
  std::printf(
      "  (cycles: %llu both tiers; rvc %llu of %llu insts built, "
      "%llu fetch bytes)\n\n",
      static_cast<unsigned long long>(block_cycles),
      static_cast<unsigned long long>(st.rvc_built),
      static_cast<unsigned long long>(insts),
      static_cast<unsigned long long>(st.fetch_bytes));
}

void bench_fault_campaign() {
  // e7-style reliability campaign, timed end-to-end (per-trial system
  // construction included, as FaultCampaign users pay it). Thermo-optic
  // weights + interrupt synchronization give the runs the long idle
  // windows real offload campaigns have.
  SystemConfig base = base_system();
  base.dram_size = 1u << 18;  // the workload fits in 256 KiB
  base.accel.gemm.mvm.weights = core::WeightTechnology::kThermoOptic;
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 8;
  const auto a = random_fixed(wl.n * wl.n, 31);
  const auto x = random_fixed(wl.n * wl.m, 32);
  const auto program =
      build_gemm_offload(wl, base, OffloadPath::kMmrInterrupt);
  const int trials = bench::samples(40, 4);

  const auto campaign_us = [&](bool legacy) {
    const SystemConfig sc = tier_config(base, legacy);
    const auto run_campaign = [&] {
      FaultCampaign campaign(
          [&]() {
            auto system = std::make_unique<System>(sc);
            stage_gemm_data(*system, wl, a, x);
            system->load_program(program);
            return system;
          },
          [&](System& s) {
            const auto y = read_gemm_result(s, wl);
            std::vector<std::uint8_t> bytes(y.size() * 2);
            memcpy(bytes.data(), y.data(), bytes.size());
            return bytes;
          },
          500000);
      lina::Rng rng(77);
      (void)campaign.run_campaign(FaultTarget::kCpuRegfile,
                                  FaultModel::kTransientFlip, trials, rng);
    };
    run_campaign();  // warm up
    const int reps = bench::samples(20, 2);
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) run_campaign();
    const double us =
        std::chrono::duration<double>(Clock::now() - t0).count() / reps * 1e6;
    std::printf("%-36s n=%-3zu %12.1f us/campaign  (%d reps, %d trials)\n",
                legacy ? "fault_campaign_e7_legacy" : "fault_campaign_e7_fast",
                wl.n, us, reps, trials);
    rows.push_back({legacy ? "fault_campaign_e7_legacy"
                           : "fault_campaign_e7_fast",
                    us, static_cast<int>(wl.n), "us/campaign"});
    return us;
  };
  const double legacy_us = campaign_us(true);
  const double fast_us = campaign_us(false);
  record_speedup("fault_campaign_e7_speedup", static_cast<int>(wl.n),
                 legacy_us, fast_us);
}

}  // namespace

int main() {
  bench::header("BENCH sysim — event-driven execution core",
                "Sec.5 campaigns run on the gem5-style platform; this "
                "tracks simulator wall time per PR (legacy vs block tier + "
                "event-driven, bit-identical results)");

  {
    // Software GEMM: pure instruction throughput (no device-busy idle
    // windows) — isolates block dispatch + DRAM fast path + bulk
    // memory-stall skipping.
    const SystemConfig sc = base_system();
    GemmWorkload wl;
    wl.n = 8;
    wl.m = 16;
    bench_workload("sw_gemm_m16",
                   make_workload(sc, 16, build_gemm_software(wl, sc)),
                   "sw_gemm_speedup");
  }
  {
    // E6-style accelerator offload (DMA + WFI, thermo-optic weights):
    // long device-busy windows — the bulk cycle skip's target. This is
    // the acceptance-tracked end-to-end row.
    SystemConfig sc = base_system();
    sc.accel.gemm.mvm.weights = core::WeightTechnology::kThermoOptic;
    GemmWorkload wl;
    wl.n = 8;
    wl.m = 32;
    bench_workload(
        "offload_e6_dma_irq_thermo",
        make_workload(sc, 32,
                      build_gemm_offload(wl, sc, OffloadPath::kDmaInterrupt)),
        "offload_e6_speedup");
  }
  {
    // E6-style streaming offload: weights programmed once, square 8x8
    // tiles pushed through the PE back to back (the serving pattern
    // non-volatile weights enable) — CPU copy loops + WFI sync, with
    // DDR-class main-memory latency (40 cycles @ 1 GHz ~= a random DDR4
    // access; the 10-cycle default models an on-chip SRAM-like DRAM).
    // Long instruction bursts, bulk-skipped load/store stalls,
    // device-busy windows and WFI wakes; this is the
    // acceptance-tracked >= 5x row.
    SystemConfig sc = base_system();
    sc.dram_latency = 40;
    sc.accel.gemm.mvm.weights = core::WeightTechnology::kThermoOptic;
    GemmWorkload tile;
    tile.n = 8;
    tile.m = 8;
    const std::size_t batches = 64;
    Workload w = make_workload(
        sc, tile.m * batches,
        build_gemm_offload_stream(tile, sc, OffloadPath::kMmrInterrupt,
                                  batches));
    bench_workload("offload_e6_stream8x8_mmr_irq", w,
                   "offload_e6_stream_speedup");
  }
  {
    // Wider 32-column tiles: more data movement per start, less wait
    // amortization — tracks the copy-loop-bound regime.
    SystemConfig sc = base_system();
    sc.accel.gemm.mvm.weights = core::WeightTechnology::kThermoOptic;
    GemmWorkload tile;
    tile.n = 8;
    tile.m = 32;
    const std::size_t batches = 32;
    Workload w = make_workload(
        sc, tile.m * batches,
        build_gemm_offload_stream(tile, sc, OffloadPath::kMmrInterrupt,
                                  batches));
    bench_workload("offload_e6_stream32_mmr_irq", w,
                   "offload_e6_stream32_speedup");
  }
  {
    // PCM variant: short programming window, stresses dispatch + MMIO.
    SystemConfig sc = base_system();
    sc.accel.gemm.mvm.weights = core::WeightTechnology::kPcm;
    GemmWorkload wl;
    wl.n = 8;
    wl.m = 32;
    bench_workload(
        "offload_e6_dma_irq_pcm",
        make_workload(sc, 32,
                      build_gemm_offload(wl, sc, OffloadPath::kDmaInterrupt)),
        "offload_e6_pcm_speedup");
  }
  bench_rvc_loop();
  bench_fault_campaign();

  bench::json_report("BENCH_sysim.json", rows);
  std::printf("\nwrote BENCH_sysim.json (%zu rows)\n", rows.size());
  return 0;
}
