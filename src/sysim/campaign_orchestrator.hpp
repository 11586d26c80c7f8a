#pragma once
/// \file campaign_orchestrator.hpp
/// Supervised worker-process pool for fault campaigns. A harness that
/// injects faults into the simulated system must itself survive faults
/// in the host processes running it: a worker that is SIGKILLed
/// mid-shard, hangs past its deadline, or emits a truncated or
/// miscounted histogram must cost one retry, not the campaign.
///
/// CampaignOrchestrator forks one worker process per shard attempt and
/// talks to it over pipes (no temp files): the serialized CampaignShard
/// streams to the child's stdin, and heartbeat/progress frames and the
/// final histogram stream back on its stdout. A lost shard (crash,
/// missed heartbeat deadline, corrupt frame, or a histogram that does
/// not total the shard's trials) is relaunched on a fresh worker on the
/// next loop pass; a shard that fails on kMaxAttempts workers runs
/// in-process through the serial executor. Because shards partition a
/// serially drawn spec list and every trial is deterministic, the merged
/// histogram is bit-identical to the serial oracle no matter how many
/// workers died on the way.
///
/// Worker processes use campaign_worker_main(), as perfbench's
/// `aspen_perfbench --campaign-worker` does. The pool is POSIX
/// (fork/pipe/poll); on other hosts run() executes every shard through
/// the serial executor, and campaign_worker_main() returns 1.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sysim/campaign_io.hpp"
#include "sysim/fault.hpp"

namespace aspen::sys {

/// Kept, empty, because perfbench/ names it: its campaign worker passes
/// a PointFactory, which campaign_worker_main calls with SweepPoint{}.
struct SweepPoint {};

/// Builds the worker's System factory — the worker-side half of the
/// contract that coordinator and worker construct byte-identical
/// platforms.
using PointFactory =
    std::function<FaultCampaign::SystemFactory(const SweepPoint&)>;

// -- Low-level pipe I/O (EINTR-retrying; SIGPIPE-safe) ---------------------
namespace io {
/// Read `fd` to EOF. Throws std::runtime_error on a read error.
[[nodiscard]] std::vector<std::uint8_t> read_all(int fd);
/// Write all `n` bytes, retrying short writes and EINTR. Returns false on
/// any other error (EPIPE included — callers see a closed peer, not a
/// signal).
bool write_all(int fd, const void* p, std::size_t n);
/// write_all of a stream frame (length prefix + payload).
bool write_frame(int fd, const std::vector<std::uint8_t>& payload);
}  // namespace io

struct OrchestratorConfig {
  /// Concurrent worker processes.
  unsigned max_workers = 2;
  /// A worker producing no frame for this long is declared lost and
  /// SIGKILLed (0 disables). Heartbeats arrive every progress chunk, so
  /// this is a hang detector, not a throughput requirement.
  std::uint32_t heartbeat_timeout_ms = 30'000;
  /// Worker command line (argv[0] = executable); the child's stdin/stdout
  /// are the shard/frame pipes. Ignored when `child_entry` is set.
  std::vector<std::string> worker_argv;
  /// Test hook: run this in the forked child instead of exec'ing (pipes
  /// already dup2'ed onto fds 0/1); the return value is the child's exit
  /// code. Lets the self-fault-injection suite sabotage workers without
  /// a separate binary.
  std::function<int(std::uint64_t seq, unsigned attempt)> child_entry;
};

/// One unit of distributable work: a serialized CampaignShard.
struct ShardTask {
  std::uint64_t seq = 0;  ///< stable id; must equal the payload's shard.seq
  std::vector<std::uint8_t> payload;
  /// The payload's spec count. A worker's final histogram must total
  /// it, or the attempt fails.
  std::uint64_t trials = 0;
};

struct ShardOutcome {
  std::uint64_t seq = 0;
  CampaignResult hist;
  unsigned attempts = 0;  ///< worker processes launched for this shard
  bool completed = false;
  bool serial_fallback = false;  ///< degraded to in-process execution
};

class CampaignOrchestrator {
 public:
  /// Worker processes a shard may consume before it runs in-process.
  static constexpr unsigned kMaxAttempts = 3;

  /// In-process executor for shards that exhausted their worker attempts
  /// (and for hosts without fork). Must produce the same histogram a
  /// healthy worker would — with deterministic trials, any correct
  /// executor does.
  using SerialExecutor = std::function<CampaignResult(const CampaignShard&)>;

  CampaignOrchestrator(OrchestratorConfig cfg, SerialExecutor serial_fallback);

  /// Drive every task to completion (workers, retries, fallback).
  /// Outcomes are returned in task order. Before any worker starts,
  /// throws std::invalid_argument when a payload does not parse, a seq
  /// repeats, or a task's `seq` or `trials` differs from its payload's
  /// seq or spec count; throws std::runtime_error when poll() fails.
  [[nodiscard]] std::vector<ShardOutcome> run(
      const std::vector<ShardTask>& tasks);

  /// Supervision counters: the orchestrator's only diagnostics (it
  /// prints nothing and takes no log sink).
  struct Stats {
    unsigned launches = 0;          ///< worker processes spawned
    unsigned kills = 0;             ///< deadline SIGKILLs issued
    unsigned failures = 0;          ///< attempts lost (crash/hang/corrupt)
    unsigned retries = 0;           ///< shards re-queued after a failure
    unsigned serial_fallbacks = 0;  ///< shards degraded to in-process
    std::uint64_t progress_frames = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  OrchestratorConfig cfg_;
  SerialExecutor serial_;
  Stats stats_;
};

// -- Worker side -----------------------------------------------------------

/// Worker-process body: read one CampaignShard from `in_fd` (to EOF),
/// rebuild the platform, configuration and staged state alike, from
/// `factory(SweepPoint{})` and run its golden. Unless that golden's
/// output equals `shard.golden` and its cycle count `shard.golden_cycles`,
/// the worker writes no frame, reports the mismatch on stderr and
/// returns 1, so the orchestrator retries the shard and finally runs it
/// in-process. Otherwise it executes the specs in chunks of 16 trials
/// with a progress frame after each chunk (and one before the first —
/// the "platform checked" heartbeat), then writes the final histogram
/// frame. Returns the process exit code;
/// diagnostics go to stderr so the frame stream stays clean. SIGPIPE is
/// ignored: a vanished orchestrator surfaces as a write error, not a
/// signal death.
int campaign_worker_main(int in_fd, int out_fd, const PointFactory& factory,
                         const FaultCampaign::OutputReader& read_output);

}  // namespace aspen::sys
