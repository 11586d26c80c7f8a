#pragma once
/// \file campaign_orchestrator.hpp
/// Supervised worker-pool orchestration for NEUROPULS-scale fault
/// campaigns. The statistical argument of the paper (Section 5) needs
/// millions of injected faults, and a harness that injects faults into
/// the simulated system must itself survive faults in the host processes
/// running it: a worker that is SIGKILLed mid-shard, hangs past its
/// deadline, or emits a truncated histogram must cost one retry, not the
/// campaign. Three layers live here:
///
///   CampaignOrchestrator — fork/exec worker pool over pipes (no temp
///     files). Each shard attempt is one worker process: the serialized
///     CampaignShard streams to the child's stdin, heartbeat/progress
///     frames and the final histogram stream back on its stdout. Lost
///     shards (crash / deadline / corrupt output) are re-queued to a
///     fresh worker with exponential backoff; a shard that fails on
///     `max_attempts` distinct workers degrades gracefully to in-process
///     serial execution. Because shards partition a serially drawn spec
///     list and every trial is deterministic, the merged histogram is
///     bit-identical to the serial oracle no matter how many workers
///     died on the way.
///
///   Journal — completed-shard records (campaign_io kJournal frames)
///     appended to a file as each shard finishes; a killed orchestrator
///     resumes by replaying the journal and re-running only the shards
///     without a record. The tail of a journal cut mid-append is
///     ignored, not fatal.
///
///   SweepGrid — the multi-axis sweep harness: fault target/model x PCM
///     drift time x temperature x ENOB. Plans per-cell campaigns and
///     shards, drives one orchestrator across the whole grid, and merges
///     per-cell outcome histograms (run_serial() is the in-process
///     oracle the orchestrated run is asserted against).
///
/// Worker processes use campaign_worker_main(), as perfbench's
/// `aspen_perfbench --campaign-worker` does. All of this is POSIX
/// (fork/pipe/poll); on non-POSIX hosts construction works but run()
/// throws.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sysim/campaign_io.hpp"
#include "sysim/fault.hpp"

namespace aspen::sys {

/// Rebuilds a cell-specific System factory from the sweep parameters a
/// shard carries — the worker-side half of the contract that coordinator
/// and worker construct byte-identical platforms.
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
  /// Worker processes a shard may consume before the orchestrator stops
  /// retrying and executes it in-process (the graceful-degradation
  /// floor). Must be >= 1.
  unsigned max_attempts = 3;
  /// A worker producing no frame for this long is declared lost and
  /// SIGKILLed (0 disables). Heartbeats arrive every progress chunk, so
  /// this is a hang detector, not a throughput requirement.
  std::uint32_t heartbeat_timeout_ms = 30'000;
  /// Backoff before a lost shard is relaunched: initial * 2^(attempt-1),
  /// capped at 1 s.
  std::uint32_t backoff_initial_ms = 25;
  /// Resumable-journal path; empty disables journaling.
  std::string journal_path;
  /// Worker command line (argv[0] = executable); the child's stdin/stdout
  /// are the shard/frame pipes. Ignored when `child_entry` is set.
  std::vector<std::string> worker_argv;
  /// Test hook: run this in the forked child instead of exec'ing (pipes
  /// already dup2'ed onto fds 0/1); the return value is the child's exit
  /// code. Lets the self-fault-injection suite sabotage workers without
  /// a separate binary.
  std::function<int(std::uint64_t seq, unsigned attempt)> child_entry;
  /// Test hook: abandon the event loop (as if the orchestrator process
  /// died) after this many shard completions in this run; 0 = run to
  /// completion. In-flight workers are killed; the journal keeps what
  /// finished.
  unsigned stop_after_shards = 0;
};

/// One unit of distributable work: an opaque serialized CampaignShard.
struct ShardTask {
  std::uint64_t seq = 0;  ///< stable id; must match the payload's shard.seq
  std::vector<std::uint8_t> payload;
  std::uint64_t trials = 0;  ///< progress denominator (reporting only)
};

struct ShardOutcome {
  std::uint64_t seq = 0;
  CampaignResult hist;
  unsigned attempts = 0;  ///< worker processes launched for this shard
  bool completed = false;
  bool from_journal = false;    ///< satisfied by a resume record
  bool serial_fallback = false; ///< degraded to in-process execution
};

class CampaignOrchestrator {
 public:
  /// In-process executor for shards that exhausted their worker attempts
  /// (and for hosts without fork). Must produce the same histogram a
  /// healthy worker would — with deterministic trials, any correct
  /// executor does.
  using SerialExecutor = std::function<CampaignResult(const CampaignShard&)>;

  CampaignOrchestrator(OrchestratorConfig cfg, SerialExecutor serial_fallback);

  /// Drive every task to completion (workers, retries, fallback, journal
  /// replay). Outcomes are returned in task order. Throws
  /// std::invalid_argument on duplicate/missing task data and
  /// std::runtime_error on unrecoverable host errors (pipe/fork
  /// exhaustion).
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
    unsigned journal_hits = 0;      ///< shards satisfied from the journal
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
/// `factory(shard.point)` and run its golden. Unless that golden's output
/// equals `shard.golden` and its cycle count `shard.golden_cycles`, the
/// worker writes no frame, reports the mismatch on stderr and returns 1,
/// so the orchestrator retries the shard and finally runs it in-process.
/// Otherwise it executes the specs in chunks of `progress_every` trials
/// with a progress frame after each chunk (and one before the first —
/// the "platform checked" heartbeat), then writes the final histogram
/// frame. When the shard carries a software-fallback golden and a
/// `recovery` reader is supplied, the worker classifies with the
/// recovery-aware six-outcome taxonomy — exactly what the coordinator's
/// serial oracle does, keeping merged histograms bit-identical. Returns
/// the process exit code; diagnostics go to stderr so the frame stream
/// stays clean. SIGPIPE is ignored: a vanished orchestrator surfaces as a
/// write error, not a signal death.
int campaign_worker_main(int in_fd, int out_fd, const PointFactory& factory,
                         const FaultCampaign::OutputReader& read_output,
                         int progress_every = 16,
                         const FaultCampaign::RecoveryReader& recovery = {});

// -- Multi-axis sweep harness ----------------------------------------------

/// Axes of the NEUROPULS robustness sweep. Cells are the cross product,
/// enumerated faults-major / abft-minor; a drift time > 0 selects
/// PCM weight technology for that cell (drift is a no-op on volatile
/// thermo-optic weights). The `abft` axis toggles the ABFT-protected
/// checked-offload platform (the factory decides what that means —
/// typically GemmConfig::abft plus the checked guest workload), letting
/// one sweep report unprotected SDC rates next to detection coverage.
struct SweepAxes {
  std::vector<std::pair<FaultTarget, FaultModel>> faults = {
      {FaultTarget::kCpuRegfile, FaultModel::kTransientFlip}};
  std::vector<double> pcm_drift_times_s = {0.0};
  std::vector<double> temperatures_k = {300.0};
  std::vector<int> adc_bits = {8};
  std::vector<bool> abft = {false};
};

struct SweepRunConfig {
  int trials_per_cell = 60;
  unsigned shards_per_cell = 2;
  std::uint32_t ladder_rungs = 0;  ///< checkpoint ladder in the workers
  std::uint64_t seed = 0x5eedULL;  ///< per-cell spec streams derive from it
};

struct SweepCell {
  SweepPoint point;
  CampaignResult hist;
  std::uint64_t golden_cycles = 0;
  unsigned shards = 0;
};

class SweepGrid {
 public:
  SweepGrid(SweepAxes axes, PointFactory factory,
            FaultCampaign::OutputReader read_output, std::uint64_t max_cycles);

  /// Recovery-aware classification for the grid's ABFT cells: `reader`
  /// extracts the guest recovery record, `fallback_golden` is the
  /// software-fallback reference output (the scalar guest kernel's
  /// rounding differs from the photonic golden). Applied to every cell
  /// whose point has abft set — both the serial oracle and the
  /// orchestrated run, so the bit-identity contract extends to the
  /// six-outcome taxonomy.
  void set_recovery(FaultCampaign::RecoveryReader reader,
                    std::vector<std::uint8_t> fallback_golden);

  /// The grid's cells in execution order (cell ids are indices here).
  [[nodiscard]] std::vector<SweepPoint> points() const;

  /// In-process serial oracle: every cell's campaign executed on the
  /// calling thread. Spec streams are drawn identically to run(), so the
  /// orchestrated histograms must match these bit-for-bit.
  [[nodiscard]] std::vector<SweepCell> run_serial(const SweepRunConfig& rc);

  /// Orchestrated run: plans shards_per_cell shards per cell (seq = cell
  /// * shards_per_cell + k, stable for journal resume), drives one
  /// worker pool across the whole grid, merges per-cell histograms.
  /// `stats_out` (optional) receives the orchestrator's supervision
  /// counters.
  [[nodiscard]] std::vector<SweepCell> run(
      const SweepRunConfig& rc, const OrchestratorConfig& orch,
      CampaignOrchestrator::Stats* stats_out = nullptr);

 private:
  /// Campaign + deterministic spec stream for one cell (shared by the
  /// serial and orchestrated paths — the bit-identity contract).
  struct Cell {
    std::unique_ptr<FaultCampaign> campaign;
    std::vector<FaultSpec> specs;
  };
  [[nodiscard]] Cell make_cell(const SweepPoint& p,
                               const SweepRunConfig& rc) const;

  SweepAxes axes_;
  PointFactory factory_;
  FaultCampaign::OutputReader read_output_;
  std::uint64_t max_cycles_;
  FaultCampaign::RecoveryReader recovery_;
  std::vector<std::uint8_t> recovery_fallback_golden_;
};

}  // namespace aspen::sys
