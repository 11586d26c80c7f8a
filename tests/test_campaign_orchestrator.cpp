// Self-fault-injection tests for the supervised campaign orchestrator: a
// harness that injects faults into the simulated system must itself
// survive faults in the host processes running it. Workers here are
// sabotaged on purpose — SIGKILLed mid-shard, hung past the heartbeat
// deadline, made to emit corrupt or miscounted histograms, crashed on
// every attempt, or built on a platform other than the coordinator's —
// and in every case the campaign must complete with a merged histogram
// bit-identical to the serial oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

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

/// Worker-side factory: the coordinator's small platform.
PointFactory make_point_factory(std::uint64_t seed) {
  return [seed](const SweepPoint&) { return make_factory(seed); };
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

  const std::vector<CampaignShard> shards = plan_shards(campaign, specs, 5, 4);
  ASSERT_EQ(shards.size(), 5u);
  std::size_t covered = 0;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    EXPECT_EQ(shards[k].seq, k);
    EXPECT_EQ(shards[k].ladder_rungs, 4u);
    EXPECT_EQ(shards[k].max_cycles, kMaxCycles);
    EXPECT_EQ(shards[k].golden, campaign.golden());
    EXPECT_EQ(shards[k].golden_cycles, campaign.golden_cycles());
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
  EXPECT_EQ(uneven.back().ladder_rungs, 0u);
  EXPECT_EQ(plan_shards(campaign, specs, 100).size(), specs.size());
  EXPECT_EQ(plan_shards(campaign, specs, 0).size(), 1u);
}

TEST(PlanShardsTest, RecoveryCampaignIsRejected) {
  // A worker grades with the four-outcome classifier, so a shard of a
  // recovery-aware campaign would merge other verdicts than the serial
  // run's without any error. Such a campaign runs in-process only.
  FaultCampaign campaign(make_factory(603), make_reader(), kMaxCycles);
  const std::vector<FaultSpec> specs = mixed_specs(campaign, 604, 2);
  const GemmWorkload wl = small_workload();
  campaign.set_recovery([wl](System& s) { return read_gemm_recovery(s, wl); },
                        campaign.golden());
  EXPECT_THROW((void)plan_shards(campaign, specs, 2), std::invalid_argument);
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
                                  make_reader());
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
  }
}

TEST(CampaignOrchestratorTest, SigkilledWorkerIsRetriedBitIdentical) {
  {
    Drill d(612);
    OrchestratorConfig oc;
    oc.max_workers = 2;
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

  // Four workers over eight shards, all busy when the first attempt at
  // shard 0 dies: the retry must take the next free slot, and the
  // counters must show that one loss and nothing else.
  Drill d(622, /*per_target=*/8, /*shard_count=*/8);
  ASSERT_EQ(d.tasks.size(), 8u);
  OrchestratorConfig oc;
  oc.max_workers = 4;
  oc.child_entry = sigkill_first_attempt_of_shard0(d.healthy(622));
  CampaignOrchestrator orch(oc, d.serial_exec());
  const std::vector<ShardOutcome> outs = orch.run(d.tasks);

  const CampaignResult merged = merge_completed(outs);
  EXPECT_EQ(merged.counts, d.serial.counts);
  EXPECT_EQ(merged.total, d.serial.total);
  EXPECT_EQ(orch.stats().failures, 1u);
  EXPECT_EQ(orch.stats().retries, 1u);
  EXPECT_EQ(orch.stats().launches, 9u);  // 8 shards plus the one retry
  EXPECT_EQ(orch.stats().serial_fallbacks, 0u);
}

TEST(CampaignOrchestratorTest, HungWorkerIsKilledAndRetried) {
  Drill d(613);
  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.heartbeat_timeout_ms = 200;  // hang detector, tightened for the test
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
  // Three histogram frames that arrive whole but must not be merged: a
  // truncated payload (a short disk write shipped onward), a complete
  // payload whose total disagrees with its counts, and a well-formed
  // histogram that totals 1 trial for a shard of 4.
  std::vector<std::uint8_t> truncated = serialize_histogram({});
  truncated.resize(truncated.size() / 2);
  const std::vector<std::uint8_t> bad_total =
      serialize_histogram({{{Outcome::kMasked, 4}}, 5});
  const std::vector<std::uint8_t> short_count =
      serialize_histogram({{{Outcome::kMasked, 1}}, 1});
  ASSERT_EQ(d.tasks[2].trials, 4u);
  for (const std::vector<std::uint8_t>& bad :
       {truncated, bad_total, short_count}) {
    OrchestratorConfig oc;
    oc.max_workers = 2;
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

TEST(CampaignOrchestratorTest, MismatchedTasksAreRejectedBeforeLaunch) {
  // A worker's histogram is held to its task's trial count, so a task
  // must agree with its payload before any worker starts: otherwise a
  // correct worker would fail on every attempt.
  Drill d(623);
  const auto expect_rejected = [&d](std::vector<ShardTask> tasks,
                                    const char* what) {
    SCOPED_TRACE(what);
    OrchestratorConfig oc;
    oc.child_entry = d.healthy(623);
    CampaignOrchestrator orch(oc, d.serial_exec());
    EXPECT_THROW((void)orch.run(tasks), std::invalid_argument);
    EXPECT_EQ(orch.stats().launches, 0u);
    EXPECT_EQ(orch.stats().serial_fallbacks, 0u);
  };
  std::vector<ShardTask> tasks = d.tasks;
  tasks[1].trials += 1;
  expect_rejected(tasks, "trials one above the spec count");
  tasks = d.tasks;
  tasks[2].seq = 7;
  expect_rejected(tasks, "seq other than the payload's");
  tasks = d.tasks;
  tasks[2] = tasks[0];
  expect_rejected(tasks, "duplicate seq");
  tasks = d.tasks;
  tasks[0].payload.pop_back();
  expect_rejected(tasks, "truncated payload");
}

/// A worker for `seq` 0 that runs campaign_worker_main on a platform
/// other than the coordinator's.
WorkerBody mismatched_worker_for_shard0(WorkerBody healthy,
                                        PointFactory other) {
  return [healthy, other](std::uint64_t seq, unsigned attempt) {
    if (seq == 0) return campaign_worker_main(0, 1, other, make_reader());
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
    oc.child_entry = body;
    CampaignOrchestrator orch(oc, d.serial_exec());
    const std::vector<ShardOutcome> outs = orch.run(d.tasks);

    const CampaignResult merged = merge_completed(outs);
    EXPECT_EQ(merged.counts, d.serial.counts);
    EXPECT_EQ(merged.total, d.serial.total);
    EXPECT_EQ(orch.stats().failures, 3u);
    EXPECT_EQ(orch.stats().serial_fallbacks, 1u);
    EXPECT_TRUE(outs[0].serial_fallback);
    EXPECT_EQ(outs[0].attempts, 3u);  // every worker attempt was consumed
    EXPECT_FALSE(outs[1].serial_fallback);
  }
}

// ---------------------------------------------------------- fault-pair sweep

TEST(SweepGridTest, OrchestratedSweepMatchesSerialOraclePerCell) {
  // A grid of two fault pairs on one platform, 8 trials in 2 shards per
  // cell, all 4 shards in one pool run. Regrouped by cell, the outcomes
  // must give each cell its own serial oracle: a histogram filed under
  // another cell's seq keeps the merged total but not the cells.
  constexpr int kTrialsPerCell = 8;
  constexpr std::size_t kShardsPerCell = 2;
  const std::vector<std::pair<FaultTarget, FaultModel>> cells = {
      {FaultTarget::kCpuRegfile, FaultModel::kTransientFlip},
      {FaultTarget::kAccelPhase, FaultModel::kTransientFlip}};

  FaultCampaign coordinator(make_factory(618), make_reader(), kMaxCycles);
  aspen::lina::Rng rng(619);
  std::vector<CampaignResult> serial;
  std::vector<CampaignShard> shards;
  for (const auto& [target, model] : cells) {
    const std::vector<FaultSpec> specs =
        coordinator.sample_specs(target, model, kTrialsPerCell, rng);
    serial.push_back(histogram_of(coordinator.run_trials(specs, 1)));
    for (CampaignShard& shard :
         plan_shards(coordinator, specs, kShardsPerCell)) {
      shard.seq = shards.size();  // unique across the grid
      shards.push_back(std::move(shard));
    }
  }
  ASSERT_NE(serial[0].counts, serial[1].counts);

  OrchestratorConfig oc;
  oc.max_workers = 2;
  oc.child_entry = [](std::uint64_t, unsigned) {
    return campaign_worker_main(0, 1, make_point_factory(618), make_reader());
  };
  CampaignOrchestrator orch(oc, [&coordinator](const CampaignShard& shard) {
    return histogram_of(coordinator.run_trials(shard.specs, 1));
  });
  const std::vector<ShardOutcome> outs = orch.run(to_tasks(shards));
  ASSERT_EQ(outs.size(), cells.size() * kShardsPerCell);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto first = outs.begin() + c * kShardsPerCell;
    const CampaignResult cell =
        merge_completed({first, first + kShardsPerCell});
    EXPECT_EQ(first->seq, c * kShardsPerCell);
    EXPECT_EQ(cell.counts, serial[c].counts)
        << "cell " << c << " diverged from the serial oracle";
    EXPECT_EQ(cell.total, kTrialsPerCell);
  }
  EXPECT_EQ(orch.stats().launches, 4u);  // 2 cells x 2 shards, no failures
  EXPECT_EQ(orch.stats().failures, 0u);
}

#endif  // __unix__

}  // namespace
