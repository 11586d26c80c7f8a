// Self-fault-injection tests for the supervised campaign orchestrator: a
// harness that injects faults into the simulated system must itself
// survive faults in the host processes running it. Workers here are
// sabotaged on purpose — SIGKILLed mid-shard, hung past the heartbeat
// deadline, made to emit corrupt histograms, crashed on every attempt,
// or built on a platform other than the coordinator's — and in every
// case the campaign must complete with a merged histogram bit-identical
// to the serial oracle. The resumable journal is exercised with a
// kill-and-resume round trip: an orchestrator abandoned mid-campaign
// must, on resume, re-run only the shards without a journal record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

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

using namespace aspen::sys;

constexpr std::uint64_t kMaxCycles = 500000;

std::vector<std::int16_t> random_fixed(std::size_t count, std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PhotonicAccelerator::to_fixed(rng.uniform(-0.9, 0.9));
  return v;
}

SystemConfig small_config() {
  SystemConfig sc;
  sc.accel.gemm.mvm.ports = 8;
  sc.accel.max_cols = 16;
  sc.max_cycles = kMaxCycles;
  return sc;
}

GemmWorkload small_workload() {
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  return wl;
}

FaultCampaign::SystemFactory make_factory(std::uint64_t seed,
                                          const SystemConfig& sc =
                                              small_config()) {
  const GemmWorkload wl = small_workload();
  const auto a = random_fixed(wl.n * wl.n, seed);
  const auto x = random_fixed(wl.n * wl.m, seed + 1);
  return [=]() {
    auto system = std::make_unique<System>(sc);
    stage_gemm_data(*system, wl, a, x);
    system->load_program(build_gemm_offload(wl, sc, OffloadPath::kMmrPolling));
    return system;
  };
}

FaultCampaign::OutputReader make_reader() {
  const GemmWorkload wl = small_workload();
  return [wl](System& s) {
    const auto y = read_gemm_result(s, wl);
    std::vector<std::uint8_t> bytes(y.size() * 2);
    std::memcpy(bytes.data(), y.data(), bytes.size());
    return bytes;
  };
}

/// Worker-side factory: every cell in these tests uses the same small
/// platform (the sweep axes exercised here don't change the config).
PointFactory make_point_factory(std::uint64_t seed) {
  return [seed](const SweepPoint&) { return make_factory(seed); };
}

/// Worker-side factory for an `adc_bits` sweep: the cell's ADC resolution
/// lives in the config, so both sides of the wire must apply it.
PointFactory make_adc_point_factory(std::uint64_t seed) {
  return [seed](const SweepPoint& p) {
    SystemConfig sc = small_config();
    sc.accel.gemm.mvm.adc.bits = p.adc_bits;
    return make_factory(seed, sc);
  };
}

std::vector<FaultSpec> mixed_specs(FaultCampaign& campaign,
                                   std::uint64_t seed, int per_target) {
  aspen::lina::Rng rng(seed);
  std::vector<FaultSpec> specs;
  for (const FaultTarget t :
       {FaultTarget::kCpuRegfile, FaultTarget::kDramData,
        FaultTarget::kAccelPhase}) {
    const auto s =
        campaign.sample_specs(t, FaultModel::kTransientFlip, per_target, rng);
    specs.insert(specs.end(), s.begin(), s.end());
  }
  return specs;
}

std::vector<ShardTask> to_tasks(const std::vector<CampaignShard>& shards) {
  std::vector<ShardTask> tasks;
  for (const CampaignShard& shard : shards) {
    ShardTask t;
    t.seq = shard.seq;
    t.trials = shard.specs.size();
    t.payload = serialize_shard(shard);
    tasks.push_back(std::move(t));
  }
  return tasks;
}

CampaignResult merge_completed(const std::vector<ShardOutcome>& outs) {
  std::vector<CampaignResult> parts;
  for (const ShardOutcome& o : outs) {
    EXPECT_TRUE(o.completed) << "shard " << o.seq << " never completed";
    parts.push_back(o.hist);
  }
  return merge_histograms(parts);
}

// ----------------------------------------------------------- shard planning

TEST(PlanShardsTest, PartitionsSpecsExactlyWithStableSeqs) {
  FaultCampaign campaign(make_factory(601), make_reader(), kMaxCycles);
  const std::vector<FaultSpec> specs = mixed_specs(campaign, 602, 4);  // 12

  SweepPoint point;
  point.cell = 3;
  point.adc_bits = 6;
  const std::vector<CampaignShard> shards =
      plan_shards(campaign, specs, 5, 4, point, 70);
  ASSERT_EQ(shards.size(), 5u);
  std::size_t covered = 0;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    EXPECT_EQ(shards[k].seq, 70 + k);
    EXPECT_EQ(shards[k].point.cell, 3u);
    EXPECT_EQ(shards[k].point.adc_bits, 6);
    EXPECT_EQ(shards[k].ladder_rungs, 4u);
    EXPECT_EQ(shards[k].max_cycles, kMaxCycles);
    EXPECT_EQ(shards[k].golden, campaign.golden());
    // Contiguous partition: shard k carries the next run of specs.
    for (const FaultSpec& s : shards[k].specs) {
      EXPECT_EQ(s.cycle, specs[covered].cycle);
      EXPECT_EQ(s.index, specs[covered].index);
      ++covered;
    }
  }
  EXPECT_EQ(covered, specs.size());  // every spec in exactly one shard

  // Remainder goes to the last shard; shard_count clamps to specs.size().
  const auto uneven = plan_shards(campaign, specs, 5);
  EXPECT_EQ(uneven.back().specs.size(),
            specs.size() - 4 * (specs.size() / 5));
  EXPECT_EQ(plan_shards(campaign, specs, 100).size(), specs.size());
  EXPECT_EQ(plan_shards(campaign, specs, 0).size(), 1u);
}

#if defined(__unix__)

// -------------------------------------------------------- supervised pool

using WorkerBody = std::function<int(std::uint64_t seq, unsigned attempt)>;

/// `healthy`, except that the first attempt at shard 0 dies the way an
/// OOM-killed or operator-killed worker dies: after reading the shard and
/// proving liveness with one heartbeat.
WorkerBody sigkill_first_attempt_of_shard0(WorkerBody healthy) {
  return [healthy](std::uint64_t seq, unsigned attempt) {
    if (seq == 0 && attempt == 0) {
      const CampaignShard shard = deserialize_shard(io::read_all(0));
      (void)io::write_frame(
          1, serialize_progress({shard.seq, 0, shard.specs.size()}));
      std::raise(SIGKILL);
    }
    return healthy(seq, attempt);
  };
}

/// Fixture state shared by the supervision drills: a coordinator
/// campaign, its serial-oracle histogram, and the planned shard tasks.
struct Drill {
  FaultCampaign coordinator;
  std::vector<FaultSpec> specs;
  CampaignResult serial;
  std::vector<CampaignShard> shards;
  std::vector<ShardTask> tasks;

  explicit Drill(std::uint64_t seed, int per_target = 4,
                 std::size_t shard_count = 3)
      : coordinator(make_factory(seed), make_reader(), kMaxCycles) {
    specs = mixed_specs(coordinator, seed + 1, per_target);
    serial = histogram_of(coordinator.run_trials(specs, 1));
    shards = plan_shards(coordinator, specs, shard_count);
    tasks = to_tasks(shards);
  }

  /// A healthy worker body (run in the forked child; fds 0/1 are the
  /// shard/frame pipes).
  [[nodiscard]] WorkerBody healthy(std::uint64_t seed) const {
    return [seed](std::uint64_t, unsigned) {
      return campaign_worker_main(0, 1, make_point_factory(seed),
                                  make_reader(), 4);
    };
  }

  [[nodiscard]] CampaignOrchestrator::SerialExecutor serial_exec() {
    return [this](const CampaignShard& shard) {
      return histogram_of(coordinator.run_trials(shard.specs, 1));
    };
  }
};

TEST(CampaignOrchestratorTest, HealthyPoolMatchesSerialBitForBit) {
  Drill d(611);
  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.child_entry = d.healthy(611);
  CampaignOrchestrator orch(oc, d.serial_exec());
  const std::vector<ShardOutcome> outs = orch.run(d.tasks);

  const CampaignResult merged = merge_completed(outs);
  EXPECT_EQ(merged.counts, d.serial.counts);
  EXPECT_EQ(merged.total, d.serial.total);
  EXPECT_EQ(orch.stats().launches, d.tasks.size());
  EXPECT_EQ(orch.stats().failures, 0u);
  EXPECT_EQ(orch.stats().serial_fallbacks, 0u);
  EXPECT_GT(orch.stats().progress_frames, 0u);
  for (const ShardOutcome& o : outs) {
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_FALSE(o.serial_fallback);
    EXPECT_FALSE(o.from_journal);
  }
}

TEST(CampaignOrchestratorTest, SigkilledWorkerIsRetriedBitIdentical) {
  Drill d(612);
  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.backoff_initial_ms = 1;
  oc.child_entry = sigkill_first_attempt_of_shard0(d.healthy(612));
  CampaignOrchestrator orch(oc, d.serial_exec());
  const std::vector<ShardOutcome> outs = orch.run(d.tasks);

  const CampaignResult merged = merge_completed(outs);
  EXPECT_EQ(merged.counts, d.serial.counts);
  EXPECT_EQ(merged.total, d.serial.total);
  EXPECT_GE(orch.stats().retries, 1u);
  EXPECT_EQ(orch.stats().serial_fallbacks, 0u);
  EXPECT_EQ(outs[0].attempts, 2u);  // the SIGKILLed attempt plus the retry
}

TEST(CampaignOrchestratorTest, HungWorkerIsKilledAndRetried) {
  Drill d(613);
  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.heartbeat_timeout_ms = 200;  // hang detector, tightened for the test
  oc.backoff_initial_ms = 1;
  const auto healthy = d.healthy(613);
  oc.child_entry = [healthy](std::uint64_t seq, unsigned attempt) {
    if (seq == 1 && attempt == 0) {
      const CampaignShard shard = deserialize_shard(io::read_all(0));
      (void)io::write_frame(
          1, serialize_progress({shard.seq, 0, shard.specs.size()}));
      for (;;) ::pause();  // heartbeats stop; the deadline must reap us
    }
    return healthy(seq, attempt);
  };
  CampaignOrchestrator orch(oc, d.serial_exec());
  const std::vector<ShardOutcome> outs = orch.run(d.tasks);

  const CampaignResult merged = merge_completed(outs);
  EXPECT_EQ(merged.counts, d.serial.counts);
  EXPECT_EQ(merged.total, d.serial.total);
  EXPECT_GE(orch.stats().kills, 1u);
  EXPECT_GE(orch.stats().retries, 1u);
  EXPECT_EQ(outs[1].attempts, 2u);
}

TEST(CampaignOrchestratorTest, CorruptHistogramIsRetried) {
  Drill d(614);
  // Two histogram frames that arrive whole but must not be merged: a
  // truncated payload (a short disk write shipped onward), and a complete
  // payload whose total disagrees with its counts.
  std::vector<std::uint8_t> truncated = serialize_histogram({});
  truncated.resize(truncated.size() / 2);
  const std::vector<std::uint8_t> bad_total =
      serialize_histogram({{{Outcome::kMasked, 4}}, 5});
  for (const std::vector<std::uint8_t>& bad : {truncated, bad_total}) {
    OrchestratorConfig oc;
    oc.max_workers = 2;
    oc.backoff_initial_ms = 1;
    const auto healthy = d.healthy(614);
    oc.child_entry = [healthy, bad](std::uint64_t seq, unsigned attempt) {
      if (seq == 2 && attempt == 0) {
        (void)io::read_all(0);
        (void)io::write_frame(1, bad);
        return 0;
      }
      return healthy(seq, attempt);
    };
    CampaignOrchestrator orch(oc, d.serial_exec());
    const std::vector<ShardOutcome> outs = orch.run(d.tasks);

    const CampaignResult merged = merge_completed(outs);
    EXPECT_EQ(merged.counts, d.serial.counts);
    EXPECT_EQ(merged.total, d.serial.total);
    EXPECT_GE(orch.stats().retries, 1u);
    EXPECT_EQ(outs[2].attempts, 2u);
  }
}

/// A worker for `seq` 0 that runs campaign_worker_main on a platform
/// other than the coordinator's.
WorkerBody mismatched_worker_for_shard0(WorkerBody healthy,
                                        PointFactory other) {
  return [healthy, other](std::uint64_t seq, unsigned attempt) {
    if (seq == 0) return campaign_worker_main(0, 1, other, make_reader(), 4);
    return healthy(seq, attempt);
  };
}

TEST(CampaignOrchestratorTest, ExhaustedRetriesDegradeToSerialFallback) {
  Drill d(615);
  const auto healthy = d.healthy(615);

  // Two platforms a worker might rebuild by mistake. Another DRAM latency
  // yields the same golden output in a different cycle count; other
  // staged data yields another golden output.
  SystemConfig slow_dram = small_config();
  slow_dram.dram_latency += 7;
  const FaultCampaign::SystemFactory slow = make_factory(615, slow_dram);
  const FaultCampaign::SystemFactory other_data = make_factory(715);
  {
    FaultCampaign probe(slow, make_reader(), kMaxCycles);
    ASSERT_EQ(probe.golden(), d.coordinator.golden());
    ASSERT_NE(probe.golden_cycles(), d.coordinator.golden_cycles());
    FaultCampaign other(other_data, make_reader(), kMaxCycles);
    ASSERT_NE(other.golden(), d.coordinator.golden());
  }

  const std::vector<std::pair<const char*, WorkerBody>> bodies = {
      // Every attempt dies before any output.
      {"crash",
       [healthy](std::uint64_t seq, unsigned attempt) {
         if (seq == 0) return 3;
         return healthy(seq, attempt);
       }},
      {"dram_latency", mismatched_worker_for_shard0(
                           healthy, [slow](const SweepPoint&) { return slow; })},
      {"other_data",
       mismatched_worker_for_shard0(
           healthy, [other_data](const SweepPoint&) { return other_data; })},
  };
  for (const auto& [name, body] : bodies) {
    SCOPED_TRACE(name);
    OrchestratorConfig oc;
    oc.max_workers = 2;
    oc.max_attempts = 2;
    oc.backoff_initial_ms = 1;
    oc.child_entry = body;
    CampaignOrchestrator orch(oc, d.serial_exec());
    const std::vector<ShardOutcome> outs = orch.run(d.tasks);

    const CampaignResult merged = merge_completed(outs);
    EXPECT_EQ(merged.counts, d.serial.counts);
    EXPECT_EQ(merged.total, d.serial.total);
    EXPECT_EQ(orch.stats().failures, 2u);
    EXPECT_EQ(orch.stats().serial_fallbacks, 1u);
    EXPECT_TRUE(outs[0].serial_fallback);
    EXPECT_EQ(outs[0].attempts, 2u);  // both worker attempts were consumed
    EXPECT_FALSE(outs[1].serial_fallback);
  }
}

// ------------------------------------------------------- resumable journal

TEST(CampaignOrchestratorTest, JournalKillAndResumeRerunsOnlyUnfinished) {
  Drill d(616, /*per_target=*/4, /*shard_count=*/4);
  const std::string journal =
      ::testing::TempDir() + "aspen_orch_journal_" +
      std::to_string(::getpid()) + ".bin";
  std::remove(journal.c_str());

  // First orchestrator: dies (abandons the loop) after two completions.
  {
    OrchestratorConfig oc;
    oc.max_workers = 1;  // deterministic completion order: seq 0 then 1
    oc.journal_path = journal;
    oc.stop_after_shards = 2;
    oc.child_entry = d.healthy(616);
    CampaignOrchestrator orch(oc, d.serial_exec());
    const std::vector<ShardOutcome> outs = orch.run(d.tasks);
    EXPECT_TRUE(outs[0].completed);
    EXPECT_TRUE(outs[1].completed);
    EXPECT_FALSE(outs[2].completed);
    EXPECT_FALSE(outs[3].completed);
  }

  // Resumed orchestrator: journal satisfies seq 0/1; only 2/3 launch.
  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.journal_path = journal;
  oc.child_entry = d.healthy(616);
  CampaignOrchestrator orch(oc, d.serial_exec());
  const std::vector<ShardOutcome> outs = orch.run(d.tasks);

  EXPECT_EQ(orch.stats().journal_hits, 2u);
  EXPECT_EQ(orch.stats().launches, 2u);  // only the unfinished shards ran
  EXPECT_TRUE(outs[0].from_journal);
  EXPECT_TRUE(outs[1].from_journal);
  EXPECT_EQ(outs[0].attempts, 0u);
  EXPECT_FALSE(outs[2].from_journal);
  const CampaignResult merged = merge_completed(outs);
  EXPECT_EQ(merged.counts, d.serial.counts);
  EXPECT_EQ(merged.total, d.serial.total);
  std::remove(journal.c_str());
}

TEST(CampaignOrchestratorTest, JournalToleratesTruncatedTail) {
  Drill d(617, /*per_target=*/3, /*shard_count=*/2);
  const std::string journal =
      ::testing::TempDir() + "aspen_orch_journal_tail_" +
      std::to_string(::getpid()) + ".bin";
  std::remove(journal.c_str());
  {
    OrchestratorConfig oc;
    oc.journal_path = journal;
    oc.child_entry = d.healthy(617);
    CampaignOrchestrator orch(oc, d.serial_exec());
    (void)orch.run(d.tasks);
  }
  // Simulate an orchestrator killed mid-append: a frame header promising
  // more bytes than the file holds.
  {
    std::FILE* f = std::fopen(journal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t partial[12] = {0xF0, 0x00, 0x00, 0x00, 0, 0, 0, 0,
                                      0xDE, 0xAD, 0xBE, 0xEF};
    std::fwrite(partial, 1, sizeof partial, f);
    std::fclose(f);
  }
  OrchestratorConfig oc;
  oc.journal_path = journal;
  oc.child_entry = d.healthy(617);
  CampaignOrchestrator orch(oc, d.serial_exec());
  const std::vector<ShardOutcome> outs = orch.run(d.tasks);
  EXPECT_EQ(orch.stats().journal_hits, 2u);
  EXPECT_EQ(orch.stats().launches, 0u);
  const CampaignResult merged = merge_completed(outs);
  EXPECT_EQ(merged.counts, d.serial.counts);
  std::remove(journal.c_str());
}

TEST(CampaignOrchestratorTest, JournalDuplicatedTailRecordMergesOnce) {
  // Crash window the journal must survive: the orchestrator fsyncs a
  // shard's record, dies before reaping the worker, and the resumed run
  // re-executes and re-journals the same shard — leaving two records for
  // one seq. Replay must merge that shard once; counting it twice would
  // inflate the histogram and break the serial bit-identity contract.
  Drill d(619, /*per_target=*/4, /*shard_count=*/4);
  const std::string journal =
      ::testing::TempDir() + "aspen_orch_journal_dup_" +
      std::to_string(::getpid()) + ".bin";
  std::remove(journal.c_str());

  {
    OrchestratorConfig oc;
    oc.max_workers = 1;  // deterministic completion order: seq 0 then 1
    oc.journal_path = journal;
    oc.stop_after_shards = 2;
    oc.child_entry = d.healthy(619);
    CampaignOrchestrator orch(oc, d.serial_exec());
    (void)orch.run(d.tasks);
  }

  // Duplicate the tail record verbatim (trials are deterministic, so a
  // re-run's record is bit-identical to the original's).
  {
    std::FILE* f = std::fopen(journal.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    FrameBuffer frames;
    std::uint8_t chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
      frames.feed(chunk, n);
    std::fclose(f);
    std::vector<std::uint8_t> tail;
    while (const auto payload = frames.next()) tail = *payload;
    ASSERT_FALSE(tail.empty());
    const std::vector<std::uint8_t> framed = frame(tail);
    f = std::fopen(journal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(framed.data(), 1, framed.size(), f);
    std::fclose(f);
  }

  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.journal_path = journal;
  oc.child_entry = d.healthy(619);
  CampaignOrchestrator orch(oc, d.serial_exec());
  const std::vector<ShardOutcome> outs = orch.run(d.tasks);

  // Two distinct seqs satisfied from the journal — the duplicate is not a
  // third hit — and the merged histogram counts every trial exactly once.
  EXPECT_EQ(orch.stats().journal_hits, 2u);
  EXPECT_EQ(orch.stats().launches, 2u);
  const CampaignResult merged = merge_completed(outs);
  EXPECT_EQ(merged.counts, d.serial.counts);
  EXPECT_EQ(merged.total, d.serial.total);
  std::remove(journal.c_str());
}

// --------------------------------------------------------- multi-axis sweep

/// Run `grid` serially and through the orchestrator configured by `oc`,
/// and check every cell against its serial oracle. Returns the
/// orchestrator's supervision counters.
CampaignOrchestrator::Stats expect_sweep_matches_serial(
    SweepGrid& grid, const SweepRunConfig& rc, const OrchestratorConfig& oc) {
  const std::vector<SweepCell> serial = grid.run_serial(rc);
  CampaignOrchestrator::Stats stats;
  const std::vector<SweepCell> swept = grid.run(rc, oc, &stats);

  EXPECT_EQ(swept.size(), serial.size());
  for (std::size_t i = 0; i < std::min(swept.size(), serial.size()); ++i) {
    EXPECT_EQ(swept[i].hist.counts, serial[i].hist.counts)
        << "cell " << i << " diverged from the serial oracle";
    EXPECT_EQ(swept[i].hist.total, rc.trials_per_cell);
    EXPECT_EQ(swept[i].shards, rc.shards_per_cell);
    EXPECT_EQ(swept[i].golden_cycles, serial[i].golden_cycles);
  }
  return stats;
}

TEST(SweepGridTest, OrchestratedSweepMatchesSerialOraclePerCell) {
  SweepRunConfig rc;
  rc.trials_per_cell = 8;
  rc.shards_per_cell = 2;

  // Two healthy workers over two fault pairs.
  {
    SweepAxes axes;
    axes.faults = {{FaultTarget::kCpuRegfile, FaultModel::kTransientFlip},
                   {FaultTarget::kDramData, FaultModel::kStuckAt1}};
    SweepGrid grid(axes, make_point_factory(618), make_reader(), kMaxCycles);

    const std::vector<SweepPoint> pts = grid.points();
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].cell, 0u);
    EXPECT_EQ(pts[1].cell, 1u);
    EXPECT_EQ(pts[1].target, FaultTarget::kDramData);

    OrchestratorConfig oc;
    oc.max_workers = 2;
    oc.child_entry = [](std::uint64_t, unsigned) {
      return campaign_worker_main(0, 1, make_point_factory(618),
                                  make_reader(), 4);
    };
    const CampaignOrchestrator::Stats stats =
        expect_sweep_matches_serial(grid, rc, oc);
    EXPECT_EQ(stats.launches, 4u);  // 2 cells x 2 shards, no failures
    EXPECT_EQ(stats.failures, 0u);
  }

  // Four workers over 2 fault pairs x adc_bits {8, 6}: 4 cells, 8
  // shards. The first attempt at shard 0 is SIGKILLed mid-shard, and
  // the retry must leave every cell bit-identical to the serial oracle.
  {
    SweepAxes axes;
    axes.faults = {{FaultTarget::kCpuRegfile, FaultModel::kTransientFlip},
                   {FaultTarget::kAccelPhase, FaultModel::kTransientFlip}};
    axes.adc_bits = {8, 6};
    SweepGrid grid(axes, make_adc_point_factory(622), make_reader(),
                   kMaxCycles);

    const std::vector<SweepPoint> pts = grid.points();
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].adc_bits, 8);
    EXPECT_EQ(pts[1].adc_bits, 6);
    EXPECT_EQ(pts[2].target, FaultTarget::kAccelPhase);

    OrchestratorConfig oc;
    oc.max_workers = 4;
    oc.backoff_initial_ms = 1;
    oc.child_entry = sigkill_first_attempt_of_shard0(
        [](std::uint64_t, unsigned) {
          return campaign_worker_main(0, 1, make_adc_point_factory(622),
                                      make_reader(), 4);
        });
    const CampaignOrchestrator::Stats stats =
        expect_sweep_matches_serial(grid, rc, oc);
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.launches, 9u);  // 8 shards plus the one retry
    EXPECT_EQ(stats.serial_fallbacks, 0u);
  }
}

/// Worker-side factory for the ABFT sweep axis: abft cells get the
/// checked platform (CRC'd transfers, ABFT-enabled accelerator, the
/// retry/fallback guest workload); unprotected cells get the plain
/// offload. Both sides of the wire must make the same choice from
/// point.abft alone.
PointFactory make_abft_point_factory(std::uint64_t seed) {
  return [seed](const SweepPoint& p) -> FaultCampaign::SystemFactory {
    if (!p.abft) return make_factory(seed);
    SystemConfig sc = small_config();
    sc.accel.gemm.abft.enabled = true;
    const GemmWorkload wl = small_workload();
    const auto a = random_fixed(wl.n * wl.n, seed);
    const auto x = random_fixed(wl.n * wl.m, seed + 1);
    return [=]() {
      auto system = std::make_unique<System>(sc);
      stage_gemm_data_checked(*system, wl, a, x);
      system->load_program(build_gemm_offload_checked(wl, sc));
      return system;
    };
  };
}

TEST(SweepGridTest, AbftAxisMatchesSerialOracleWithRecoveryTaxonomy) {
  // One fault pair swept across abft = {off, on}: the abft cell runs the
  // checked workload and classifies with the six-outcome recovery
  // taxonomy, and the orchestrated histograms must still match the
  // serial oracle bit-for-bit — the same contract the legacy four
  // outcomes have, extended to the recovery verdicts.
  SweepAxes axes;
  axes.faults = {{FaultTarget::kAccelSpmW, FaultModel::kStuckAt1}};
  axes.abft = {false, true};
  SweepGrid grid(axes, make_abft_point_factory(620), make_reader(),
                 kMaxCycles);

  const GemmWorkload wl = small_workload();
  const auto a = random_fixed(wl.n * wl.n, 620);
  const auto x = random_fixed(wl.n * wl.m, 621);
  const auto fb = golden_gemm(wl, a, x);
  std::vector<std::uint8_t> fb_bytes(fb.size() * 2);
  std::memcpy(fb_bytes.data(), fb.data(), fb_bytes.size());
  const auto recovery = [wl](System& s) { return read_gemm_recovery(s, wl); };
  grid.set_recovery(recovery, fb_bytes);

  SweepRunConfig rc;
  rc.trials_per_cell = 10;
  rc.shards_per_cell = 2;

  const std::vector<SweepCell> serial = grid.run_serial(rc);
  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.child_entry = [recovery](std::uint64_t, unsigned) {
    return campaign_worker_main(0, 1, make_abft_point_factory(620),
                                make_reader(), 4, recovery);
  };
  CampaignOrchestrator::Stats stats;
  const std::vector<SweepCell> swept = grid.run(rc, oc, &stats);

  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(swept.size(), serial.size());
  EXPECT_FALSE(serial[0].point.abft);
  EXPECT_TRUE(serial[1].point.abft);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(swept[i].hist.counts, serial[i].hist.counts)
        << "cell " << i << " diverged from the serial oracle";
    EXPECT_EQ(swept[i].hist.total, rc.trials_per_cell);
  }
  // The unprotected cell must stay in the legacy four-outcome space —
  // recovery verdicts exist only where the abft axis enabled them.
  for (const auto& kv : serial[0].hist.counts) {
    EXPECT_NE(kv.first, Outcome::kDetectedCorrected);
    EXPECT_NE(kv.first, Outcome::kDetectedRecovered);
  }
  EXPECT_EQ(stats.failures, 0u);
}

#endif  // __unix__

}  // namespace
