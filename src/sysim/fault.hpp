#pragma once
/// \file fault.hpp
/// Microarchitecture-level fault injection campaigns — the gem5-MARVEL
/// capability the paper highlights (Section 5: "supports transient and
/// permanent fault injections to all hardware structures"). A campaign
/// stages a workload once, snapshots the fully constructed System, and
/// then executes trials by restoring that snapshot (copying only what
/// the previous trial changed) instead of rebuilding the platform per
/// run — the construction floor (DRAM allocation + photonic weight
/// programming) is paid once. Each trial injects one fault (target
/// structure, model, cycle, bit) and classifies the outcome against a
/// golden run:
///
///   Masked   — run completed, architectural output identical
///   SDC      — run completed, output differs (silent data corruption)
///   DUE-trap — detected: CPU halted on an access/illegal fault
///   DUE-hang — detected: run exceeded the cycle budget (watchdog)
///
/// Recovery-aware campaigns (a checked workload + set_recovery()) split
/// the survived-and-correct space by the guest's recovery record:
///
///   Detected+corrected — output correct AND the guest observed errors
///                        (retry succeeded or ABFT repaired in place)
///   Detected+recovered — guest fell back to the software GEMM and its
///                        output matches the software-path golden
///
/// so "Masked" keeps meaning the fault genuinely changed nothing and
/// "SDC" keeps meaning corruption escaped every installed detector.
///
/// Trials are independent, so they shard across a worker pool: every
/// worker owns a private factory-built System restored from the shared
/// snapshot per trial. Fault specs are pre-drawn serially from the
/// caller's Rng, so serial and parallel campaigns produce bit-identical
/// per-trial verdicts (not merely equal distributions).
///
/// Dead-fault pruning (ACE / pre-injection analysis, Mukherjee et al.,
/// MICRO 2003): a laddered campaign traces the golden run's reads once
/// and grades a transient flip whose location the golden run never
/// reads at or after the injection cycle with the golden run's own
/// verdict, without restoring or simulating (masked_without_simulation).
/// An unread bit cannot change anything, so verdicts stay bit-identical;
/// the campaign without a ladder stays the differential oracle. For the
/// phases the trace also records each LOAD_WEIGHTS of PE 0: an upset
/// whose next phase access is such a write is overwritten before anything
/// reads it (the upset clears the engine's unchanged-weights shortcut, so
/// the LOAD reprograms every phase exactly as the golden run holds
/// them) and is graded the same way. Output
/// and recovery readers must observe the system through its memories
/// (System::read_dram, Memory reads) and Cpu::read_reg, as every reader
/// in the repo does, so the trace sees what they read.

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lina/random.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace aspen::sys {

enum class FaultTarget {
  kCpuRegfile,    ///< architectural register bit
  kDramData,      ///< workload data region in DRAM
  kAccelSpmW,     ///< accelerator weight scratchpad
  kAccelSpmX,     ///< accelerator input scratchpad
  kAccelPhase,    ///< photonic configuration (programmed mesh phase)
};
[[nodiscard]] std::string to_string(FaultTarget t);

enum class FaultModel {
  kTransientFlip,  ///< single bit flip at the injection cycle
  kStuckAt0,       ///< permanent stuck-at-0 from the injection cycle on
  kStuckAt1,       ///< permanent stuck-at-1
};
[[nodiscard]] std::string to_string(FaultModel m);

/// Trial verdicts. New values are only ever appended (the campaign wire
/// format and sweep reports serialize the underlying integer).
enum class Outcome {
  kMasked,
  kSdc,
  kDueTrap,
  kDueHang,
  kDetectedCorrected,  ///< detected; retry/ABFT restored the exact output
  kDetectedRecovered,  ///< detected; software fallback produced the output
};
[[nodiscard]] std::string to_string(Outcome o);

struct FaultSpec {
  FaultTarget target = FaultTarget::kCpuRegfile;
  FaultModel model = FaultModel::kTransientFlip;
  std::uint64_t cycle = 0;   ///< injection time
  std::uint32_t index = 1;   ///< register number / byte offset / phase idx
  unsigned bit = 0;          ///< bit within the target word/byte
  double phase_delta_rad = 0.5;  ///< for kAccelPhase
};

/// Distribution of outcomes over a campaign.
struct CampaignResult {
  std::map<Outcome, int> counts;
  int total = 0;
  [[nodiscard]] double fraction(Outcome o) const;
  /// Fraction of *corrupting* faults (everything except Masked) that some
  /// detector caught: trap, hang, corrected, or recovered. 1.0 when no
  /// fault corrupted anything (vacuous coverage).
  [[nodiscard]] double detection_coverage() const;
  /// Fraction of all trials ending in silent data corruption.
  [[nodiscard]] double sdc_rate() const { return fraction(Outcome::kSdc); }
};

/// Histogram of a verdict list — the one reduction every campaign
/// consumer (bench, orchestrator, tests) performs.
[[nodiscard]] CampaignResult histogram_of(const std::vector<Outcome>& outcomes);

class FaultCampaign {
 public:
  /// `factory` builds a fully staged system (program + data loaded);
  /// `read_output` extracts the architectural output after completion.
  /// The factory is only ever invoked from the calling thread (worker
  /// replicas are constructed serially before the pool starts);
  /// `read_output` must be safe to call concurrently on distinct
  /// Systems (a pure read of the passed system is).
  using SystemFactory = std::function<std::unique_ptr<System>()>;
  using OutputReader = std::function<std::vector<std::uint8_t>(System&)>;
  using RecoveryReader = std::function<GemmRecoveryRecord(System&)>;

  FaultCampaign(SystemFactory factory, OutputReader read_output,
                std::uint64_t max_cycles);

  /// Golden (fault-free) execution; cached after the first call.
  const std::vector<std::uint8_t>& golden();
  /// Cycle count of the golden run (for sampling injection times).
  [[nodiscard]] std::uint64_t golden_cycles();
  /// The staged snapshot every trial restores from (stages lazily). It
  /// never leaves the process: a worker process builds its own from the
  /// same factory and checks its golden against the coordinator's.
  [[nodiscard]] const System::SystemSnapshot& staged_snapshot();
  /// The per-trial cycle budget this campaign classifies against.
  [[nodiscard]] std::uint64_t max_cycles() const { return max_cycles_; }

  /// Build a checkpoint ladder: `rungs` snapshots (rung 0 = the staged
  /// system) at evenly spaced cycles across the golden run's window.
  /// run_trial then restores from the latest rung at or before the
  /// injection cycle instead of from cycle 0, so a trial injecting at
  /// cycle c re-simulates at most window/rungs golden-prefix cycles
  /// rather than c. Verdicts are bit-identical to the rung-0 path (the
  /// prefix is fault-free, and snapshots capture complete architectural
  /// state).
  ///
  /// After the rung pass it records the dead-fault index that turns on
  /// masked_without_simulation: the golden run replays once on the
  /// template system under a System read trace (legacy interpreter, no
  /// direct spans), both readers run on its end state and yield the
  /// golden verdict, and the last read cycle of every register and of
  /// each DRAM, SPM_W and SPM_X byte of PE 0 that was read (held
  /// sparsely) is kept, with PE 0's STARTs and LOAD_WEIGHTS in run order.
  /// Rungs share the memory images of earlier rungs their memory did not
  /// write since (Memory::snapshot). Throws std::logic_error unless
  /// the traced run's cycles, instret and output equal the golden run's.
  ///
  /// `rungs` <= 1 tears the ladder and the index down, restoring the
  /// plain restore-from-cycle-0, simulate-every-trial behavior — kept as
  /// the differential oracle.
  void build_ladder(unsigned rungs);
  /// Number of ladder rungs currently held (0 = ladder disabled).
  [[nodiscard]] std::size_t ladder_rungs() const { return ladder_.size(); }

  /// Enable recovery-aware classification for checked workloads:
  /// `reader` extracts the guest-written recovery record after each
  /// trial, and `fallback_golden` is the reference output of the
  /// software-GEMM fallback path (it differs from the photonic golden —
  /// the scalar guest kernel truncates where the accelerator rounds).
  /// With recovery set, a trial whose guest fell back is classified
  /// against `fallback_golden` (match = Detected+recovered), and a trial
  /// matching the photonic golden after observed errors becomes
  /// Detected+corrected. Without it classification is exactly the
  /// four-outcome legacy behavior. `reader` must be safe to call
  /// concurrently on distinct Systems (a pure read of the passed system
  /// is). With a ladder built, the dead-fault index is recorded again,
  /// so its golden verdict and end-of-run reads are the new readers'.
  void set_recovery(RecoveryReader reader,
                    std::vector<std::uint8_t> fallback_golden);
  [[nodiscard]] bool recovery_enabled() const {
    return static_cast<bool>(recovery_reader_);
  }

  /// Execute one faulted run (snapshot-restore under the hood).
  Outcome run_one(const FaultSpec& spec);

  /// True when run_trial grades `spec` with the golden verdict without
  /// simulating it: a dead-fault index is held (build_ladder with 2 or
  /// more rungs), `spec` is a kTransientFlip that inject() accepts, and
  /// the golden run has no read stamped at or after `spec.cycle` of its
  /// location:
  ///  - register x(index % 31 + 1);
  ///  - DRAM byte `index`;
  ///  - SPM_W / SPM_X byte `index % size` of PE 0;
  ///  - any START of PE 0 for a phase, the phases' only reader, before
  ///    the first LOAD_WEIGHTS of PE 0 stamped at or after `spec.cycle`
  ///    (a LOAD and a START in one CTRL write count as the write first).
  /// A golden access in the tick of cycle c follows an injection at cycle
  /// c, so c = last read + 1 is the first prunable cycle, and an upset at
  /// a LOAD's own cycle is overwritten. Stuck-at specs always run. The
  /// index is read-only while run_trials shards across threads.
  [[nodiscard]] bool masked_without_simulation(const FaultSpec& spec) const;

  /// Draw `trials` random fault specs for a target/model pair: injection
  /// cycles uniform over the closed window [0, golden_cycles()] (a fault
  /// can land before the first executed cycle or exactly at completion),
  /// indices/bits uniform over the target structure. `index_lo`/
  /// `index_hi` restrict the sampled index range for every target —
  /// register selectors (index i = x(i+1)) and phase indices just like
  /// byte offsets; hi == 0 means the whole structure, and a non-default
  /// range is clamped to the structure size. Throws std::invalid_argument
  /// when the clamped range is empty (lo > hi). Drawing is always serial
  /// and on the caller's rng, so the spec stream is independent of how
  /// the trials are later executed.
  [[nodiscard]] std::vector<FaultSpec> sample_specs(
      FaultTarget target, FaultModel model, int trials, lina::Rng& rng,
      std::uint32_t index_lo = 0, std::uint32_t index_hi = 0);

  /// Execute a batch of trials, sharded across `threads` workers (1 =
  /// serial on the calling thread). Per-trial outcomes are returned in
  /// spec order and are bit-identical for every thread count: each trial
  /// starts from the same restored snapshot whichever worker runs it.
  /// With a ladder built, trials are processed grouped by rung (their
  /// reported order is unchanged) so consecutive restores share an image
  /// and copy only what the previous trial wrote.
  [[nodiscard]] std::vector<Outcome> run_trials(
      const std::vector<FaultSpec>& specs, unsigned threads = 1);

  /// sample_specs + run_trials + outcome histogram in one call.
  CampaignResult run_campaign(FaultTarget target, FaultModel model,
                              int trials, lina::Rng& rng,
                              std::uint32_t index_lo = 0,
                              std::uint32_t index_hi = 0,
                              unsigned threads = 1);

  /// Apply one fault to a live system — the exact injection mapping the
  /// campaign uses (public so benches/tests can drive it on their own
  /// systems instead of duplicating it).
  static void inject(System& system, const FaultSpec& spec);
  /// Classify a finished run against a golden output (DUE-hang/-trap
  /// from the halt state, Masked/SDC from the output comparison) — the
  /// legacy four-outcome classifier, which recovery-off campaigns use
  /// unchanged.
  static Outcome classify(System& system, const OutputReader& read_output,
                          const std::vector<std::uint8_t>& golden);

 private:
  /// Build the template system and capture the staged snapshot.
  void ensure_staged();
  /// Restore `system` from ladder rung `rung` (rung_index(spec.cycle);
  /// ignored without a ladder) and execute one trial, or return the
  /// golden verdict when masked_without_simulation(spec) holds. Throws
  /// std::invalid_argument for a spec whose injection cycle lies beyond
  /// the cycle budget — such a fault can never be injected, so it is
  /// rejected loudly instead of being silently applied after completion.
  Outcome run_trial(System& system, const FaultSpec& spec, std::size_t rung);
  /// Classification used by run_trial: the legacy static classify when
  /// recovery is off, the six-outcome recovery-aware split otherwise.
  [[nodiscard]] Outcome classify_trial(System& system) const;
  /// Ladder index for an injection cycle (latest rung.cycle <= cycle).
  [[nodiscard]] std::size_t rung_index(std::uint64_t cycle) const;
  /// Replay the golden run traced on the template system and fold the
  /// trace into reads_ (see build_ladder).
  void record_golden_reads();

  /// The dead-fault index: the golden run's last read of each fault
  /// location (std::nullopt: never read) and its verdict.
  struct GoldenReads {
    using Last = std::optional<std::uint64_t>;
    /// (byte offset, last read), ascending by offset; unread bytes are
    /// absent.
    using Bytes = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
    /// (stamp, true for a LOAD_WEIGHTS write, false for a START read).
    using PhaseAccesses = std::vector<std::pair<std::uint64_t, bool>>;
    std::array<Last, 32> reg{};
    Bytes dram, spm_w, spm_x;
    PhaseAccesses phase_accesses;  ///< PE 0's, in run order
    /// Structure sizes, so a spec inject() would reject still runs.
    std::uint32_t dram_size = 0, spm_w_size = 0, spm_x_size = 0;
    std::size_t phases = 0;
    Outcome verdict = Outcome::kMasked;
  };

  SystemFactory factory_;
  OutputReader read_output_;
  std::uint64_t max_cycles_;
  /// Template system (worker 0 / serial trials run here) + the shared
  /// staged snapshot every trial restores from.
  std::unique_ptr<System> scratch_;
  /// Per-worker replica systems, grown lazily to the largest thread
  /// count seen and reused across run_trials calls (each trial restores
  /// from the snapshot anyway, so replicas carry no state between
  /// batches).
  std::vector<std::unique_ptr<System>> replicas_;
  System::SystemSnapshot staged_;
  bool staged_ready_ = false;
  std::vector<std::uint8_t> golden_;
  std::uint64_t golden_cycles_ = 0;
  std::uint64_t golden_instret_ = 0;
  bool have_golden_ = false;
  /// Recovery-aware classification (set_recovery): guest record reader +
  /// the software-fallback reference output.
  RecoveryReader recovery_reader_;
  std::vector<std::uint8_t> fallback_golden_;
  /// Checkpoint ladder over the injection window: snapshots of the
  /// golden run at ascending cycles (empty = disabled; otherwise
  /// ladder_[0] is the staged snapshot). Read-only while run_trials
  /// shards across threads.
  std::vector<System::SystemSnapshot> ladder_;
  /// Held with the ladder, like it read-only while run_trials shards
  /// across threads.
  std::optional<GoldenReads> reads_;
};

}  // namespace aspen::sys
