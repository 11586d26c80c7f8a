// The system-simulator workloads: E6 software GEMM and DMA streaming
// offload (one op = restore the staged platform + run it to exit), and
// the E7 fault campaign (one op = a 64-trial chunk through the
// checkpoint ladder, plus an orchestrated leg over worker processes).
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/energy_model.hpp"
#include "lina/random.hpp"
#include "replay.hpp"
#include "sysim/campaign_io.hpp"
#include "sysim/campaign_orchestrator.hpp"
#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace perfbench {

namespace {

using namespace aspen::sys;

std::vector<std::int16_t> random_fixed(std::size_t count, aspen::lina::Rng& rng) {
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  return v;
}

/// Modelled accelerator energy of `sim_s` simulated seconds in which
/// `vectors` vectors went through the mesh and `write_j` was spent on
/// weight writes: static draw (laser + heaters) while idle, the model's
/// full per-MVM energy while computing, plus the writes.
double accel_energy_j(const SystemConfig& sc, double sim_s, double vectors,
                      double write_j) {
  const auto rep = aspen::core::evaluate_accelerator(sc.accel.gemm.mvm, 0.0);
  const double busy_s = vectors * rep.latency_per_mvm_s;
  const double idle_s = sim_s > busy_s ? sim_s - busy_s : 0.0;
  return static_cast<double>(sc.num_pes) * rep.static_power_w * idle_s +
         rep.energy_per_mvm_j * vectors + write_j;
}

/// Simulator counters that one execution moves; all exact.
struct RunCounters {
  std::uint64_t cycles = 0, instret = 0, busy_cycles = 0;
  std::uint64_t mvm_ops = 0, program_ops = 0;
  double write_j = 0.0;
  bool operator==(const RunCounters& o) const {
    return cycles == o.cycles && instret == o.instret &&
           busy_cycles == o.busy_cycles && mvm_ops == o.mvm_ops &&
           program_ops == o.program_ops && write_j == o.write_j;
  }
};

RunCounters counters_since(System& s, const System::SystemSnapshot& from) {
  const auto& pe = s.pe(0);
  const auto& c = pe.gemm().engine().counters();
  const auto& c0 = from.pes[0].gemm.engine.counters;
  RunCounters r;
  r.cycles = s.now() - from.cycle;
  r.instret = s.cpu().instret() - from.cpu.instret;
  r.busy_cycles = pe.total_busy_cycles() - from.pes[0].total_busy_cycles;
  r.mvm_ops = c.mvm_ops - c0.mvm_ops;
  r.program_ops = c.program_ops - c0.program_ops;
  r.write_j = c.weight_write_energy_j - c0.weight_write_energy_j;
  return r;
}

aspen::sys::rv::BlockStats blk_delta(const aspen::sys::rv::BlockStats& a,
                                     const aspen::sys::rv::BlockStats& b) {
  aspen::sys::rv::BlockStats d;
  d.blocks_built = b.blocks_built - a.blocks_built;
  d.chained = b.chained - a.chained;
  d.evictions = b.evictions - a.evictions;
  d.fallback_steps = b.fallback_steps - a.fallback_steps;
  d.lookup_hits = b.lookup_hits - a.lookup_hits;
  d.lookup_misses = b.lookup_misses - a.lookup_misses;
  return d;
}

void put_cpu_metrics(const RunCounters& rc, double run_us,
                     const aspen::sys::rv::BlockStats& blk, Metrics& out) {
  const double instret = static_cast<double>(rc.instret);
  out["cpu.instret"] = {instret, "count"};
  out["cpu.cpi"] = {instret > 0 ? static_cast<double>(rc.cycles) / instret : 0.0,
                    "cycles/inst"};
  out["cpu.host_ns_per_inst"] = {instret > 0 ? run_us * 1e3 / instret : 0.0,
                                 "ns"};
  out["cpu.blk_hit_rate"] = {blk.hit_rate(), "frac"};
  out["cpu.blk_built"] = {static_cast<double>(blk.blocks_built), "count"};
  out["cpu.blk_chained"] = {static_cast<double>(blk.chained), "count"};
  out["cpu.blk_evictions"] = {static_cast<double>(blk.evictions), "count"};
  out["cpu.blk_fallback_steps"] = {static_cast<double>(blk.fallback_steps),
                                   "count"};
}

void put_accel_metrics(const RunCounters& rc, Metrics& out) {
  out["accel.busy_cycles"] = {static_cast<double>(rc.busy_cycles), "cycles"};
  out["accel.busy_frac"] = {
      rc.cycles > 0 ? static_cast<double>(rc.busy_cycles) /
                          static_cast<double>(rc.cycles)
                    : 0.0,
      "frac"};
  out["core.mvm_ops"] = {static_cast<double>(rc.mvm_ops), "count"};
  out["core.program_ops"] = {static_cast<double>(rc.program_ops), "count"};
}

// -- E6: software GEMM and DMA streaming offload ---------------------------

class E6 final : public Workload {
 public:
  E6(bool dma_stream, const WorkloadArgs& args) : dma_(dma_stream) {
    sc_.accel.gemm.mvm.ports = 8;
    sc_.accel.max_cols = 64;
    GemmWorkload tile;
    tile.n = 8;
    if (dma_) {
      sc_.accel.gemm.mvm.weights = aspen::core::WeightTechnology::kThermoOptic;
      tile.m = kTileCols;
      program_ = build_gemm_offload_stream(tile, sc_, OffloadPath::kDmaInterrupt,
                                           kBatches);
      wl_ = tile;
      wl_.m = kTileCols * kBatches;
    } else {
      sc_.dram_latency = 40;
      tile.m = 64;
      program_ = build_gemm_software(tile, sc_);
      wl_ = tile;
    }
    aspen::lina::Rng rng(stream_seed(args.seed, dma_ ? 0xe62 : 0xe61));
    a_ = random_fixed(wl_.n * wl_.n, rng);
    x_ = random_fixed(wl_.n * wl_.m, rng);
  }

  void setup(Spans& spans) override {
    {
      Scope s(spans, "system.construct");
      sys_ = std::make_unique<System>(sc_);
    }
    stage_gemm_data(*sys_, wl_, a_, x_);
    sys_->load_program(program_);
    staged_ = sys_->snapshot();
    last_ = sys_->run();  // the golden run; warms the weight-programming memo
    ref_ = counters_since(*sys_, staged_);
  }

  void prepare() override {
    golden_y_ = golden_gemm(wl_, a_, x_);
    setup_ok_ = output_ok();
  }

  void op(Spans& spans) override {
    const auto blk0 = spans.on() ? sys_->cpu().block_stats()
                                 : aspen::sys::rv::BlockStats{};
    {
      Scope s(spans, "system.restore");
      sys_->restore(staged_);
    }
    {
      Scope s(spans, "system.run");
      last_ = sys_->run();
    }
    if (spans.on()) last_blk_ = blk_delta(blk0, sys_->cpu().block_stats());
  }

  bool check_op() override {
    return output_ok() && counters_since(*sys_, staged_) == ref_;
  }

  void verify(std::uint64_t& attempted, std::uint64_t& failed) override {
    ++attempted;  // the set-up golden run
    if (!setup_ok_) ++failed;
  }

  SimPerOp sim_per_op() const override {
    const double sim_s =
        static_cast<double>(ref_.cycles) / sc_.accel.clock_hz;
    const double vectors = dma_ ? static_cast<double>(kTileCols * kBatches) : 0.0;
    return {sim_s * 1e6, accel_energy_j(sc_, sim_s, vectors, ref_.write_j) * 1e6,
            static_cast<double>(ref_.instret)};
  }

  void layer_metrics(const Spans& setup_spans, const Spans& op_spans,
                     Metrics& out) override {
    const double run_us = op_spans.median_s("system.run") * 1e6;
    out["system.construct_ms"] = {setup_spans.median_s("system.construct") * 1e3,
                                  "ms"};
    out["system.restore_us"] = {op_spans.median_s("system.restore") * 1e6, "us"};
    out["system.run_us"] = {run_us, "us"};
    put_cpu_metrics(ref_, run_us, last_blk_, out);
    put_accel_metrics(ref_, out);

    // The workload's weight tile and first input tile; the software GEMM
    // never offloads, so its replays are the cost it avoids.
    const std::uint32_t cols = dma_ ? kTileCols : static_cast<std::uint32_t>(wl_.m);
    const std::vector<std::int16_t> x_tile(x_.begin(),
                                           x_.begin() + wl_.n * cols);
    const double start_us = replay_accel_start_us(sc_.accel, a_, x_tile, cols);
    out["accel.start_us"] = {start_us, "us"};
    const double starts = dma_ ? static_cast<double>(kBatches) : 0.0;
    out["system.run_minus_accel_us"] = {run_us - starts * start_us, "us"};
    replay_photonic_layers({sc_.accel.gemm,
                            {fixed_to_cmat_rowmajor(a_, wl_.n, wl_.n)},
                            {fixed_to_cmat_colmajor(x_tile, wl_.n, cols)}},
                           out);
  }

 private:
  static constexpr std::uint32_t kTileCols = 8;
  static constexpr std::size_t kBatches = 256;

  bool output_ok() {
    if (last_.halt != rv::Halt::kEcallExit || last_.timed_out) return false;
    const auto y = read_gemm_result(*sys_, wl_);
    if (y.size() != golden_y_.size()) return false;
    // The software kernel is exact; the photonic path may round by 1 LSB.
    const int tol = dma_ ? 1 : 0;
    for (std::size_t i = 0; i < y.size(); ++i)
      if (std::abs(static_cast<int>(y[i]) - static_cast<int>(golden_y_[i])) > tol)
        return false;
    return true;
  }

  bool dma_;
  SystemConfig sc_;
  GemmWorkload wl_;
  std::vector<std::uint32_t> program_;
  std::vector<std::int16_t> a_, x_, golden_y_;
  std::unique_ptr<System> sys_;
  System::SystemSnapshot staged_;
  System::RunResult last_;
  RunCounters ref_;
  aspen::sys::rv::BlockStats last_blk_;
  bool setup_ok_ = false;
};

// -- E7: fault campaign ----------------------------------------------------

/// The campaign's platform, rebuilt identically by worker processes from
/// the same seed.
struct E7Platform {
  /// Per-trial cycle budget: about twice the golden run's ~11.7k cycles,
  /// so a hung trial costs about two golden runs rather than dominating
  /// the chunk it lands in (which would make op times hinge on how many
  /// hangs a seed happens to draw).
  static constexpr std::uint64_t kMaxCycles = 25000;
  SystemConfig sc;
  GemmWorkload wl;
  std::vector<std::int16_t> a, x;
  std::vector<std::uint32_t> program;

  explicit E7Platform(std::uint64_t seed) {
    sc.accel.gemm.mvm.ports = 8;
    sc.accel.max_cols = 64;
    sc.dram_size = 1u << 18;
    sc.accel.gemm.mvm.weights = aspen::core::WeightTechnology::kThermoOptic;
    wl.n = 8;
    wl.m = 8;
    aspen::lina::Rng rng(stream_seed(seed, 0xe7));
    a = random_fixed(wl.n * wl.n, rng);
    x = random_fixed(wl.n * wl.m, rng);
    program = build_gemm_offload(wl, sc, OffloadPath::kMmrInterrupt);
  }
  [[nodiscard]] FaultCampaign::SystemFactory factory() const {
    return [this] {
      auto s = std::make_unique<System>(sc);
      stage_gemm_data(*s, wl, a, x);
      s->load_program(program);
      return s;
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

class E7 final : public Workload {
 public:
  explicit E7(const WorkloadArgs& args) : args_(args), p_(args.seed) {}

  void setup(Spans& spans) override {
    campaign_ = std::make_unique<FaultCampaign>(p_.factory(), p_.reader(),
                                                E7Platform::kMaxCycles);
    {
      Scope s(spans, "campaign.golden");
      (void)campaign_->golden();
    }
    {
      Scope s(spans, "campaign.ladder");
      campaign_->build_ladder(kRungs);
    }
  }

  void prepare() override {
    aspen::lina::Rng rng(stream_seed(args_.seed, 0xe75));
    std::vector<std::vector<FaultSpec>> parts;
    for (const FaultTarget t : {FaultTarget::kCpuRegfile, FaultTarget::kDramData,
                                FaultTarget::kAccelSpmW, FaultTarget::kAccelPhase})
      parts.push_back(campaign_->sample_specs(t, FaultModel::kTransientFlip,
                                              kTrials / 4, rng));
    // Interleave targets so every chunk mixes all four.
    specs_.clear();
    for (std::size_t i = 0; i < kTrials / 4; ++i)
      for (const auto& p : parts) specs_.push_back(p[i]);
    chunks_.assign(kChunks, {});
    for (std::size_t c = 0; c < kChunks; ++c)
      chunks_[c].assign(specs_.begin() + static_cast<std::ptrdiff_t>(c * kChunk),
                        specs_.begin() + static_cast<std::ptrdiff_t>((c + 1) * kChunk));
    // Warm pass: fills the ladder's restore state and records each
    // chunk's verdicts, which every later op must reproduce.
    first_.assign(kChunks, {});
    for (std::size_t c = 0; c < kChunks; ++c)
      first_[c] = campaign_->run_trials(chunks_[c], 1);
    passed_per_chunk_.assign(kChunks, 0);
  }

  void op(Spans& spans) override {
    last_chunk_ = next_chunk_;
    next_chunk_ = (next_chunk_ + 1) % kChunks;
    Scope s(spans, "campaign.run_trials");
    out_ = campaign_->run_trials(chunks_[last_chunk_], 1);
  }

  bool check_op() override {
    const bool ok = out_ == first_[last_chunk_];
    if (ok) ++passed_per_chunk_[last_chunk_];
    return ok;
  }

  void verify(std::uint64_t& attempted, std::uint64_t& failed) override {
    // Rung-0 serial oracle: no ladder, every trial from the staged image.
    // Ops that matched a warm-up pass the oracle disagrees with failed too.
    FaultCampaign oracle(p_.factory(), p_.reader(), E7Platform::kMaxCycles);
    const std::vector<Outcome> truth = oracle.run_trials(specs_, 1);
    for (std::size_t c = 0; c < kChunks; ++c)
      if (!std::equal(first_[c].begin(), first_[c].end(),
                      truth.begin() + static_cast<std::ptrdiff_t>(c * kChunk)))
        failed += passed_per_chunk_[c];
    hist_ = histogram_of(truth);

    replay_trials(oracle, truth, attempted, failed);
    orchestrated_leg(attempted, failed);
  }

  SimPerOp sim_per_op() const override {
    const double chunks = static_cast<double>(kChunks);
    const double sim_s = static_cast<double>(sim_cycles_) / p_.sc.accel.clock_hz;
    // Each trial offloads the golden run's one 8-column tile.
    const double vectors = static_cast<double>(kTrials * p_.wl.m);
    return {sim_s * 1e6 / chunks,
            accel_energy_j(p_.sc, sim_s, vectors, sim_write_j_) * 1e6 / chunks,
            static_cast<double>(sim_instret_) / chunks};
  }

  void layer_metrics(const Spans& setup_spans, const Spans& op_spans,
                     Metrics& out) override {
    out["campaign.golden_ms"] = {setup_spans.median_s("campaign.golden") * 1e3, "ms"};
    out["campaign.ladder_ms"] = {setup_spans.median_s("campaign.ladder") * 1e3, "ms"};
    out["campaign.us_per_trial"] = {
        op_spans.median_s("campaign.run_trials") * 1e6 / kChunk, "us"};
    out["trial.restore_fast_us"] = {median(restore_s_) * 1e6, "us"};
    out["trial.simulate_us"] = {median(simulate_s_) * 1e6, "us"};
    out["trial.classify_us"] = {median(classify_s_) * 1e6, "us"};
    out["campaign.masked_frac"] = {hist_.fraction(Outcome::kMasked), "frac"};
    out["campaign.sdc_frac"] = {hist_.fraction(Outcome::kSdc), "frac"};
    out["campaign.due_frac"] = {hist_.fraction(Outcome::kDueTrap) +
                                    hist_.fraction(Outcome::kDueHang),
                                "frac"};
    out["io.serialize_shard_us"] = {median(serialize_s_) * 1e6, "us"};
    out["io.shard_bytes"] = {static_cast<double>(shard_bytes_), "bytes"};
    out["orch.launches"] = {static_cast<double>(orch_.launches), "count"};
    out["orch.progress_frames"] = {static_cast<double>(orch_.progress_frames),
                                   "count"};
    out["orch.failures"] = {static_cast<double>(orch_.failures), "count"};
    out["orch.retries"] = {static_cast<double>(orch_.retries), "count"};
    out["orch.serial_fallbacks"] = {static_cast<double>(orch_.serial_fallbacks),
                                    "count"};
    out["orch_trials_per_s"] = {orch_trials_per_s_, "1/s"};
    golden_replay(out);
  }

 private:
  static constexpr unsigned kRungs = 16;
  static constexpr std::size_t kChunk = 64;
  static constexpr std::size_t kChunks = 64;
  static constexpr std::size_t kTrials = kChunk * kChunks;

  /// Rung-0 replay of every trial through the public System/FaultCampaign
  /// calls run_trial makes (the ladder rungs are private), timing the
  /// restore, simulate and classify steps and counting the simulated work.
  void replay_trials(FaultCampaign& oracle, const std::vector<Outcome>& truth,
                     std::uint64_t& attempted, std::uint64_t& failed) {
    auto sys = p_.factory()();
    const System::SystemSnapshot& staged = oracle.staged_snapshot();
    const std::vector<std::uint8_t>& golden = oracle.golden();
    const auto reader = p_.reader();
    const double w0 = staged.pes[0].gemm.engine.counters.weight_write_energy_j;
    restore_s_.clear();
    simulate_s_.clear();
    classify_s_.clear();
    sim_cycles_ = sim_instret_ = 0;
    sim_write_j_ = 0.0;
    bool match = true;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const FaultSpec& spec = specs_[i];
      auto t0 = Clock::now();
      // After the first trial the system was last restored to `staged`,
      // so only the previous trial's own writes can differ.
      if (i == 0)
        sys->restore_fast(staged);
      else
        sys->restore_fast(staged, 0, 0);
      restore_s_.push_back(seconds_since(t0));
      t0 = Clock::now();
      sys->run_until(spec.cycle);
      FaultCampaign::inject(*sys, spec);
      sys->run_until(E7Platform::kMaxCycles);
      simulate_s_.push_back(seconds_since(t0));
      t0 = Clock::now();
      const Outcome o = FaultCampaign::classify(*sys, reader, golden);
      classify_s_.push_back(seconds_since(t0));
      match = match && o == truth[i];
      sim_cycles_ += sys->now();
      sim_instret_ += sys->cpu().instret();
      sim_write_j_ +=
          sys->pe(0).gemm().engine().counters().weight_write_energy_j - w0;
    }
    ++attempted;
    if (!match) ++failed;
  }

  /// The same spec list through plan_shards + the supervised worker pool
  /// (this binary as its own worker); the merged histogram must equal the
  /// serial one.
  void orchestrated_leg(std::uint64_t& attempted, std::uint64_t& failed) {
    const std::vector<CampaignShard> shards =
        plan_shards(*campaign_, specs_, kShards, kRungs);
    std::vector<ShardTask> tasks;
    serialize_s_.clear();
    for (const CampaignShard& shard : shards) {
      ShardTask t;
      t.seq = shard.seq;
      t.trials = shard.specs.size();
      const auto t0 = Clock::now();
      t.payload = serialize_shard(shard);
      serialize_s_.push_back(seconds_since(t0));
      tasks.push_back(std::move(t));
    }
    shard_bytes_ = tasks.front().payload.size();

    OrchestratorConfig oc;
    oc.max_workers = 2;
    oc.heartbeat_timeout_ms = 120'000;
    oc.worker_argv = {args_.self_exe, "--campaign-worker", "--seed",
                      std::to_string(args_.seed)};
    CampaignOrchestrator orch(oc, [this](const CampaignShard& shard) {
      return histogram_of(campaign_->run_trials(shard.specs, 1));
    });
    const auto t0 = Clock::now();
    const std::vector<ShardOutcome> outs = orch.run(tasks);
    orch_trials_per_s_ = static_cast<double>(specs_.size()) / seconds_since(t0);
    orch_ = orch.stats();

    std::vector<CampaignResult> parts;
    bool ok = true;
    for (const ShardOutcome& o : outs) {
      ok = ok && o.completed;
      parts.push_back(o.hist);
    }
    const CampaignResult merged = merge_histograms(parts);
    ok = ok && merged.counts == hist_.counts && merged.total == hist_.total;
    ++attempted;
    if (!ok) ++failed;
  }

  /// Restore + run of the fault-free workload on a fresh replica: the
  /// system / CPU / accelerator figures of the platform under test.
  void golden_replay(Metrics& out) {
    std::vector<double> construct_s;
    std::unique_ptr<System> sys;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      sys = p_.factory()();
      construct_s.push_back(seconds_since(t0));
    }
    const System::SystemSnapshot& staged = campaign_->staged_snapshot();
    std::vector<double> restore_s, run_s;
    RunCounters rc;
    aspen::sys::rv::BlockStats blk;
    for (int i = 0; i < 200; ++i) {
      const auto blk0 = sys->cpu().block_stats();
      auto t0 = Clock::now();
      sys->restore(staged);
      restore_s.push_back(seconds_since(t0));
      t0 = Clock::now();
      (void)sys->run();
      run_s.push_back(seconds_since(t0));
      blk = blk_delta(blk0, sys->cpu().block_stats());
      rc = counters_since(*sys, staged);
    }
    out["system.construct_ms"] = {median(construct_s) * 1e3, "ms"};
    out["system.restore_us"] = {median(restore_s) * 1e6, "us"};
    const double run_us = median(run_s) * 1e6;
    out["system.run_us"] = {run_us, "us"};
    put_cpu_metrics(rc, run_us, blk, out);
    // Host time per instruction of the campaign's own trial simulations.
    double sim_total_s = 0.0;
    for (const double s : simulate_s_) sim_total_s += s;
    out["cpu.host_ns_per_inst"] = {
        sim_instret_ > 0 ? sim_total_s * 1e9 / static_cast<double>(sim_instret_)
                         : 0.0,
        "ns"};
    put_accel_metrics(rc, out);
    const double start_us = replay_accel_start_us(
        p_.sc.accel, p_.a, p_.x, static_cast<std::uint32_t>(p_.wl.m));
    out["accel.start_us"] = {start_us, "us"};
    out["system.run_minus_accel_us"] = {run_us - start_us, "us"};
    replay_photonic_layers({p_.sc.accel.gemm,
                            {fixed_to_cmat_rowmajor(p_.a, p_.wl.n, p_.wl.n)},
                            {fixed_to_cmat_colmajor(p_.x, p_.wl.n, p_.wl.m)}},
                           out);
  }

  static constexpr std::size_t kShards = 4;

  WorkloadArgs args_;
  E7Platform p_;
  std::unique_ptr<FaultCampaign> campaign_;
  std::vector<FaultSpec> specs_;
  std::vector<std::vector<FaultSpec>> chunks_;
  std::vector<std::vector<Outcome>> first_;
  std::vector<std::uint64_t> passed_per_chunk_;
  std::vector<Outcome> out_;
  std::size_t next_chunk_ = 0, last_chunk_ = 0;
  CampaignResult hist_;
  std::vector<double> restore_s_, simulate_s_, classify_s_, serialize_s_;
  std::uint64_t sim_cycles_ = 0, sim_instret_ = 0;
  double sim_write_j_ = 0.0;
  std::size_t shard_bytes_ = 0;
  CampaignOrchestrator::Stats orch_;
  double orch_trials_per_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_e6_workload(bool dma_stream,
                                           const WorkloadArgs& args) {
  return std::make_unique<E6>(dma_stream, args);
}

std::unique_ptr<Workload> make_e7_workload(const WorkloadArgs& args) {
  return std::make_unique<E7>(args);
}

int e7_campaign_worker(std::uint64_t seed) {
  const E7Platform p(seed);
  return campaign_worker_main(
      0, 1,
      [&p](const SweepPoint&) -> FaultCampaign::SystemFactory {
        return p.factory();
      },
      p.reader());
}

}  // namespace perfbench
