#include "sysim/fault.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

namespace aspen::sys {

std::string to_string(FaultTarget t) {
  switch (t) {
    case FaultTarget::kCpuRegfile: return "cpu-regfile";
    case FaultTarget::kDramData: return "dram-data";
    case FaultTarget::kAccelSpmW: return "accel-spm-w";
    case FaultTarget::kAccelSpmX: return "accel-spm-x";
    case FaultTarget::kAccelPhase: return "accel-phase";
  }
  return "?";
}

std::string to_string(FaultModel m) {
  switch (m) {
    case FaultModel::kTransientFlip: return "transient";
    case FaultModel::kStuckAt0: return "stuck-at-0";
    case FaultModel::kStuckAt1: return "stuck-at-1";
  }
  return "?";
}

std::string to_string(Outcome o) {
  switch (o) {
    case Outcome::kMasked: return "masked";
    case Outcome::kSdc: return "SDC";
    case Outcome::kDueTrap: return "DUE-trap";
    case Outcome::kDueHang: return "DUE-hang";
    case Outcome::kDetectedCorrected: return "detected-corrected";
    case Outcome::kDetectedRecovered: return "detected-recovered";
  }
  return "?";
}

double CampaignResult::fraction(Outcome o) const {
  const auto it = counts.find(o);
  if (it == counts.end() || total == 0) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total);
}

double CampaignResult::detection_coverage() const {
  int corrupting = 0, detected = 0;
  for (const auto& [o, n] : counts) {
    if (o == Outcome::kMasked) continue;
    corrupting += n;
    if (o != Outcome::kSdc) detected += n;
  }
  if (corrupting == 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(corrupting);
}

CampaignResult histogram_of(const std::vector<Outcome>& outcomes) {
  CampaignResult r;
  for (const Outcome o : outcomes) ++r.counts[o];
  r.total = static_cast<int>(outcomes.size());
  return r;
}

FaultCampaign::FaultCampaign(SystemFactory factory, OutputReader read_output,
                             std::uint64_t max_cycles)
    : factory_(std::move(factory)),
      read_output_(std::move(read_output)),
      max_cycles_(max_cycles) {}

void FaultCampaign::ensure_staged() {
  if (staged_ready_) return;
  scratch_ = factory_();
  staged_ = scratch_->snapshot();
  staged_ready_ = true;
}

const std::vector<std::uint8_t>& FaultCampaign::golden() {
  if (!have_golden_) {
    ensure_staged();
    scratch_->restore(staged_);
    const auto result = scratch_->run();
    if (result.timed_out || result.halt == rv::Halt::kBusFault ||
        result.halt == rv::Halt::kIllegal)
      throw std::runtime_error("FaultCampaign: golden run failed");
    golden_ = read_output_(*scratch_);
    golden_cycles_ = result.cycles;
    have_golden_ = true;
  }
  return golden_;
}

std::uint64_t FaultCampaign::golden_cycles() {
  (void)golden();
  return golden_cycles_;
}

const System::SystemSnapshot& FaultCampaign::staged_snapshot() {
  ensure_staged();
  return staged_;
}

void FaultCampaign::build_ladder(unsigned rungs) {
  (void)golden();
  ladder_.clear();
  if (rungs <= 1) return;
  ladder_.push_back(staged_);
  if (golden_cycles_ == 0) return;
  // One sequential pass of the golden run, snapshotting at each rung
  // cycle. run_until guarantees now() == target unless the CPU halts
  // first (then the remaining rungs would sit past the window and never
  // be preferred over completion anyway).
  scratch_->restore(staged_);
  for (unsigned k = 1; k < rungs; ++k) {
    const std::uint64_t c =
        staged_.cycle + (golden_cycles_ * k) / rungs;
    if (c <= ladder_.back().cycle) continue;
    scratch_->run_until(c);
    if (scratch_->cpu().halted()) break;
    ladder_.push_back(scratch_->snapshot());
  }
}

void FaultCampaign::set_recovery(RecoveryReader reader,
                                 std::vector<std::uint8_t> fallback_golden) {
  recovery_reader_ = std::move(reader);
  fallback_golden_ = std::move(fallback_golden);
}

void FaultCampaign::adopt_staged(System::SystemSnapshot staged,
                                 std::vector<std::uint8_t> golden,
                                 std::uint64_t golden_cycles) {
  ensure_staged();  // the factory-built template executes the trials
  staged_ = std::move(staged);
  golden_ = std::move(golden);
  golden_cycles_ = golden_cycles;
  have_golden_ = true;
  ladder_.clear();
}

void FaultCampaign::inject(System& system, const FaultSpec& spec) {
  switch (spec.target) {
    case FaultTarget::kCpuRegfile: {
      const int reg = static_cast<int>(spec.index % 31 + 1);  // skip x0
      if (spec.model == FaultModel::kTransientFlip)
        system.cpu().flip_reg_bit(reg, spec.bit);
      else
        system.cpu().set_reg_stuck_bit(reg, spec.bit,
                                       spec.model == FaultModel::kStuckAt1);
      break;
    }
    case FaultTarget::kDramData: {
      if (spec.model == FaultModel::kTransientFlip)
        system.dram().flip_bit(spec.index, spec.bit);
      else
        system.dram().set_stuck_bit(spec.index, spec.bit,
                                    spec.model == FaultModel::kStuckAt1);
      break;
    }
    case FaultTarget::kAccelSpmW:
    case FaultTarget::kAccelSpmX: {
      Memory& spm = spec.target == FaultTarget::kAccelSpmW
                        ? system.pe(0).spm_w()
                        : system.pe(0).spm_x();
      const std::uint32_t off = spec.index % spm.size();
      if (spec.model == FaultModel::kTransientFlip)
        spm.flip_bit(off, spec.bit);
      else
        spm.set_stuck_bit(off, spec.bit,
                          spec.model == FaultModel::kStuckAt1);
      break;
    }
    case FaultTarget::kAccelPhase: {
      // Photonic configuration upset: a phase deviates. Stuck-at maps to
      // a persistent offset (PCM cell switched to a wrong level).
      system.pe(0).inject_phase_fault(spec.index, spec.phase_delta_rad);
      break;
    }
  }
}

Outcome FaultCampaign::classify(System& system,
                                const OutputReader& read_output,
                                const std::vector<std::uint8_t>& golden) {
  if (!system.cpu().halted()) return Outcome::kDueHang;
  const rv::Halt h = system.cpu().halt_reason();
  if (h == rv::Halt::kBusFault || h == rv::Halt::kIllegal)
    return Outcome::kDueTrap;
  return read_output(system) == golden ? Outcome::kMasked : Outcome::kSdc;
}

Outcome FaultCampaign::classify_trial(System& system) const {
  if (!recovery_reader_)
    return classify(system, read_output_, golden_);
  if (!system.cpu().halted()) return Outcome::kDueHang;
  const rv::Halt h = system.cpu().halt_reason();
  if (h == rv::Halt::kBusFault || h == rv::Halt::kIllegal)
    return Outcome::kDueTrap;
  const GemmRecoveryRecord rec = recovery_reader_(system);
  const std::vector<std::uint8_t> out = read_output_(system);
  if (rec.fell_back != 0) {
    // The guest abandoned the accelerator: correct means matching the
    // software-path reference (its rounding differs from the photonic
    // golden, so comparing against golden_ would mislabel every
    // successful fallback as SDC).
    return out == fallback_golden_ ? Outcome::kDetectedRecovered
                                   : Outcome::kSdc;
  }
  if (out == golden_) {
    // Correct output, accelerator path. Errors the guest observed (CRC /
    // watchdog retries) or the ABFT unit silently repaired mean the
    // fault was real and the protection earned the verdict.
    return (rec.detected != 0 || rec.corrected != 0 || rec.retried != 0)
               ? Outcome::kDetectedCorrected
               : Outcome::kMasked;
  }
  return Outcome::kSdc;
}

std::size_t FaultCampaign::rung_index(std::uint64_t cycle) const {
  // Latest rung at or before the injection cycle. Rung cycles ascend, so
  // this is one upper_bound.
  const auto it = std::upper_bound(
      ladder_.begin(), ladder_.end(), cycle,
      [](std::uint64_t c, const System::SystemSnapshot& r) {
        return c < r.cycle;
      });
  return it == ladder_.begin() ? 0 : static_cast<std::size_t>(it - ladder_.begin()) - 1;
}

Outcome FaultCampaign::run_trial(System& system, const FaultSpec& spec) {
  if (spec.cycle > max_cycles_)
    throw std::invalid_argument(
        "FaultCampaign: injection cycle " + std::to_string(spec.cycle) +
        " beyond the cycle budget " + std::to_string(max_cycles_) +
        " — the fault could never be injected");

  // Restore the latest checkpoint at or before the injection cycle.
  system.restore(ladder_.empty() ? staged_ : ladder_[rung_index(spec.cycle)]);

  // Run to the exact injection cycle (event-driven under the hood),
  // inject, then run to completion.
  system.run_until(spec.cycle);
  inject(system, spec);
  system.run_until(max_cycles_);
  return classify_trial(system);
}

Outcome FaultCampaign::run_one(const FaultSpec& spec) {
  (void)golden();  // ensure reference exists (also stages the snapshot)
  return run_trial(*scratch_, spec);
}

std::vector<FaultSpec> FaultCampaign::sample_specs(FaultTarget target,
                                                   FaultModel model,
                                                   int trials, lina::Rng& rng,
                                                   std::uint32_t index_lo,
                                                   std::uint32_t index_hi) {
  const std::uint64_t window = golden_cycles();
  // The staged template sizes the injectable structures.
  System& probe = *scratch_;
  const auto structure_size = [&]() -> std::uint32_t {
    switch (target) {
      case FaultTarget::kCpuRegfile: return 31;  // index i = register x(i+1)
      case FaultTarget::kDramData: return probe.config().dram_size;
      case FaultTarget::kAccelSpmW: return probe.pe(0).spm_w().size();
      case FaultTarget::kAccelSpmX: return probe.pe(0).spm_x().size();
      case FaultTarget::kAccelPhase:
        return static_cast<std::uint32_t>(probe.pe(0).phase_state_size());
    }
    return 0;
  }();
  // [lo, hi] clamped to the structure; hi == 0 selects the whole range.
  // Every target honors the caller's bounds — a regfile or phase
  // campaign over a sub-range is as legitimate as a DRAM data-region
  // one — and an empty clamped range is an error, not a silent default.
  const std::uint32_t max_index = structure_size > 0 ? structure_size - 1 : 0;
  const std::uint32_t lo = index_lo;
  const std::uint32_t hi =
      index_hi == 0 ? max_index : std::min(index_hi, max_index);
  if (lo > hi)
    throw std::invalid_argument(
        "FaultCampaign::sample_specs: empty index range [" +
        std::to_string(index_lo) + ", " + std::to_string(index_hi) +
        "] for " + to_string(target) + " (structure size " +
        std::to_string(structure_size) + ")");

  std::vector<FaultSpec> specs;
  specs.reserve(static_cast<std::size_t>(trials > 0 ? trials : 0));
  for (int t = 0; t < trials; ++t) {
    FaultSpec spec;
    spec.target = target;
    spec.model = model;
    // Closed injection window: cycle 0 (before the first executed cycle)
    // and golden_cycles() (exactly at completion) are both reachable.
    spec.cycle = rng.uniform_int(0, window);
    spec.bit = static_cast<unsigned>(rng.uniform_int(0, 31));
    spec.index = static_cast<std::uint32_t>(rng.uniform_int(lo, hi));
    switch (target) {
      case FaultTarget::kCpuRegfile:
        break;
      case FaultTarget::kDramData:
      case FaultTarget::kAccelSpmW:
      case FaultTarget::kAccelSpmX:
        spec.bit = static_cast<unsigned>(rng.uniform_int(0, 7));
        break;
      case FaultTarget::kAccelPhase:
        spec.phase_delta_rad = rng.uniform(-1.5, 1.5);
        break;
    }
    specs.push_back(spec);
  }
  return specs;
}

std::vector<Outcome> FaultCampaign::run_trials(
    const std::vector<FaultSpec>& specs, unsigned threads) {
  (void)golden();
  const std::size_t n = specs.size();
  std::vector<Outcome> outcomes(n, Outcome::kMasked);
  std::size_t workers = threads == 0 ? 1 : threads;
  if (workers > n) workers = n > 0 ? n : 1;

  // Execution order: grouped by ladder rung (stable within a rung) so
  // consecutive trials restore from the same checkpoint image and the
  // restore reverts only what the previous trial wrote. Outcomes are
  // always reported in spec order, so the grouping is invisible to
  // callers and identical for every thread count.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (!ladder_.empty())
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rung_index(specs[a].cycle) <
                              rung_index(specs[b].cycle);
                     });

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i)
      outcomes[order[i]] = run_trial(*scratch_, specs[order[i]]);
    return outcomes;
  }

  // Private replica per extra worker, constructed serially (the factory
  // need not be thread-safe) and cached across run_trials calls; worker
  // 0 reuses the template. Construction is paid once per worker for the
  // campaign's lifetime — every trial itself starts from the shared
  // snapshot.
  while (replicas_.size() < workers - 1) replicas_.push_back(factory_());

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](System& system, std::size_t w) {
    try {
      for (std::size_t k; (k = next.fetch_add(1)) < n;) {
        const std::size_t i = order[k];
        outcomes[i] = run_trial(system, specs[i]);
      }
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w)
    pool.emplace_back(work, std::ref(*replicas_[w - 1]), w);
  work(*scratch_, 0);
  for (auto& t : pool) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  return outcomes;
}

CampaignResult FaultCampaign::run_campaign(FaultTarget target,
                                           FaultModel model, int trials,
                                           lina::Rng& rng,
                                           std::uint32_t index_lo,
                                           std::uint32_t index_hi,
                                           unsigned threads) {
  const std::vector<FaultSpec> specs =
      sample_specs(target, model, trials, rng, index_lo, index_hi);
  const std::vector<Outcome> outcomes = run_trials(specs, threads);
  CampaignResult result;
  for (const Outcome o : outcomes) {
    ++result.counts[o];
    ++result.total;
  }
  return result;
}

}  // namespace aspen::sys
