#include "sysim/accelerator.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "sysim/crc32.hpp"

namespace aspen::sys {

using lina::CMat;
using lina::cplx;
using lina::CVec;

namespace {
std::uint32_t spm_bytes(std::size_t elems) {
  return static_cast<std::uint32_t>(elems * sizeof(std::int16_t));
}
}  // namespace

PhotonicAccelerator::PhotonicAccelerator(AcceleratorConfig cfg)
    // SPM latency mirrors the device access_latency() so the memories
    // can be bus-attached directly without changing cycle accounting.
    : cfg_(cfg),
      gemm_(cfg.gemm),
      spm_w_("spm-w",
             spm_bytes(cfg.gemm.mvm.ports * cfg.gemm.mvm.ports), 2),
      spm_x_("spm-x", spm_bytes(cfg.gemm.mvm.ports * cfg.max_cols), 2),
      spm_y_("spm-y", spm_bytes(cfg.gemm.mvm.ports * cfg.max_cols), 2) {
  if (cfg_.max_cols == 0 || cfg_.clock_hz <= 0.0)
    throw std::invalid_argument("PhotonicAccelerator: bad config");
  if (spm_w_.size() > 0x1000 || spm_x_.size() > 0x1000)
    throw std::invalid_argument(
        "PhotonicAccelerator: SPM exceeds its 4 KiB window");
}

std::int16_t PhotonicAccelerator::to_fixed(double v) {
  const double scaled = v * (1 << kFracBits);
  // Saturate first: these are exactly the inputs that round half away
  // from zero takes past the int16 range, and the ones left convert to
  // an integer without overflow (NaN saturates low, never reaching the
  // conversion).
  if (scaled >= 32767.5) return 32767;
  if (!(scaled > -32768.5)) return -32768;
  // Round half away from zero without a libm call: truncate, then step
  // one away from zero when the fraction (exact, as |scaled| < 2^15)
  // reaches one half.
  int q = static_cast<int>(scaled);
  const double frac = scaled - q;
  if (frac >= 0.5) ++q;
  if (frac <= -0.5) --q;
  return static_cast<std::int16_t>(q);
}

double PhotonicAccelerator::from_fixed(std::int16_t v) {
  return static_cast<double>(v) / (1 << kFracBits);
}

// SPM windows decode straight to their memories: offsets past a
// memory's populated bytes read as zero and drop writes (Memory's
// bus-facing leniency, like unpopulated RTL address space), so wild
// accesses under fault injection do not kill the simulator.
std::uint32_t PhotonicAccelerator::read(std::uint32_t offset, unsigned size) {
  if (offset >= kSpmYBase) return spm_y_.read(offset - kSpmYBase, size);
  if (offset >= kSpmXBase) return spm_x_.read(offset - kSpmXBase, size);
  if (offset >= kSpmWBase) return spm_w_.read(offset - kSpmWBase, size);
  switch (offset) {
    case kRegCtrl: return ctrl_;
    case kRegStatus:
      return (busy() ? kStatusBusy : 0u) | (done_ ? kStatusDone : 0u) |
             (error_ ? kStatusError : 0u);
    case kRegCols: return cols_;
    case kRegPorts: return static_cast<std::uint32_t>(cfg_.gemm.mvm.ports);
    case kRegCycles: return last_op_cycles_;
    case kRegErr: return err_cause_;
    case kRegAbftDetected:
      return static_cast<std::uint32_t>(gemm_.abft_counters().detected);
    case kRegAbftCorrected:
      return static_cast<std::uint32_t>(gemm_.abft_counters().corrected);
    case kRegCrcW: return crc_w_expect_;
    case kRegCrcX: return crc_x_expect_;
    case kRegWdog:
      return watchdog_cycles_ > 0xFFFFFFFFull
                 ? 0xFFFFFFFFu
                 : static_cast<std::uint32_t>(watchdog_cycles_);
    default: return 0;
  }
}

void PhotonicAccelerator::write(std::uint32_t offset, std::uint32_t value,
                                unsigned size) {
  if (offset >= kSpmYBase) return spm_y_.write(offset - kSpmYBase, value, size);
  if (offset >= kSpmXBase) return spm_x_.write(offset - kSpmXBase, value, size);
  if (offset >= kSpmWBase) return spm_w_.write(offset - kSpmWBase, value, size);
  switch (offset) {
    case kRegCtrl:
      ctrl_ = value;
      if ((value & (kCtrlStart | kCtrlLoadWeights)) && !busy())
        start_operation(value);
      break;
    case kRegStatus:
      if (value & kStatusDone) {
        done_ = false;
        irq_ = false;
      }
      if (value & kStatusError) {
        error_ = false;
        err_cause_ = 0;
        irq_ = false;
      }
      break;
    case kRegCols:
      if (value >= 1 && value <= cfg_.max_cols) cols_ = value;
      break;
    case kRegCrcW: crc_w_expect_ = value; break;
    case kRegCrcX: crc_x_expect_ = value; break;
    case kRegWdog: watchdog_cycles_ = value; break;
    default: break;
  }
}

namespace {
/// Q3.12 element load: straight off the raw span while no stuck-at
/// faults are armed (identical little-endian value to read(off, 2)),
/// through the fault-masking read() otherwise.
std::int16_t spm_fixed_at(Memory& spm, const BusDevice::DirectSpan& span,
                          std::size_t elem) {
  if (span.data != nullptr)
    return static_cast<std::int16_t>(load_le(span.data + 2 * elem, 2));
  return static_cast<std::int16_t>(
      spm.read(static_cast<std::uint32_t>(2 * elem), 2));
}
}  // namespace

void PhotonicAccelerator::start_operation(std::uint32_t ctrl) {
  pending_op_ = ctrl;
  const std::size_t n = cfg_.gemm.mvm.ports;
  double op_seconds = 0.0;
  std::uint64_t extra_cycles = 0;
  // A CRC mismatch aborts the remainder of this operation (a combined
  // LOAD+START must not compute on unprogrammed weights); the latch from
  // a *previous* operation does not block new ones.
  bool aborted = false;

  if (ctrl & kCtrlLoadWeights) {
    CMat w(n, n);
    const BusDevice::DirectSpan ws = spm_w_.direct_span();
    const bool check = (ctrl & kCtrlCrcW) != 0;
    std::uint32_t crc = kCrc32Init;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        const std::int16_t fixed = spm_fixed_at(spm_w_, ws, r * n + c);
        if (check) crc = crc32_le16(crc, static_cast<std::uint16_t>(fixed));
        w(r, c) = cplx{from_fixed(fixed), 0.0};
      }
    if (check && (crc ^ kCrc32FinalXor) != crc_w_expect_) {
      latch_error(kErrCrcW);
      aborted = true;
    } else {
      gemm_.set_weights(w);
      if (trace_ != nullptr) trace_->phases_written(this);
      op_seconds += gemm_.engine().program_time_s();
    }
  }

  if ((ctrl & kCtrlStart) && !aborted) {
    const std::size_t m = cols_;
    tile_x_.resize(n * m);
    const BusDevice::DirectSpan xs = spm_x_.direct_span();
    const bool check = (ctrl & kCtrlCrcX) != 0;
    std::uint32_t crc = kCrc32Init;
    for (std::size_t c = 0; c < m; ++c)
      for (std::size_t r = 0; r < n; ++r) {
        const std::int16_t fixed = spm_fixed_at(spm_x_, xs, c * n + r);
        if (check) crc = crc32_le16(crc, static_cast<std::uint16_t>(fixed));
        tile_x_[r * m + c] = from_fixed(fixed);
      }
    if (check && (crc ^ kCrc32FinalXor) != crc_x_expect_) {
      latch_error(kErrCrcX);
    } else {
      if (trace_ != nullptr) trace_->phases_read(this);
      gemm_.multiply_noiseless(tile_x_, m, tile_re_, tile_im_);
      if (cfg_.gemm.abft.enabled) {
        if (gemm_.last_abft().counts.uncorrectable > 0) latch_error(kErrAbft);
        // Pipelined checksum verifiers retire eight columns per cycle.
        extra_cycles += (m + 7) / 8;
      }
      // Direct span writeback unless a master caches state derived from
      // this SPM (then write() must run so its observer fires); the bulk
      // write is reported so the SPM's dirty watermark covers it.
      const BusDevice::DirectSpan ys =
          spm_y_.observed() ? BusDevice::DirectSpan{} : spm_y_.direct_span();
      for (std::size_t c = 0; c < m; ++c)
        for (std::size_t r = 0; r < n; ++r) {
          const auto fixed =
              static_cast<std::uint16_t>(to_fixed(tile_re_[r * m + c]));
          if (ys.data != nullptr) {
            std::memcpy(ys.data + 2 * (c * n + r), &fixed, 2);
          } else {
            spm_y_.write(static_cast<std::uint32_t>(2 * (c * n + r)), fixed,
                         2);
          }
        }
      if (ys.data != nullptr) spm_y_.direct_span_written(0, spm_bytes(n * m));

      const auto k = static_cast<std::size_t>(cfg_.gemm.wdm_channels);
      const auto groups = static_cast<double>((m + k - 1) / k);
      op_seconds += groups * gemm_.engine().symbol_time_s();
    }
  }

  const double cycles = std::ceil(op_seconds * cfg_.clock_hz);
  busy_cycles_ = static_cast<std::uint64_t>(cycles) + cfg_.handshake_cycles +
                 extra_cycles;
  total_busy_cycles_ += busy_cycles_;
  last_op_cycles_ = static_cast<std::uint32_t>(busy_cycles_);
}

void PhotonicAccelerator::finish_operation() {
  done_ = true;
  watchdog_cycles_ = 0;  // deadline met: the operation retired
  if (pending_op_ & kCtrlIrqEn) irq_ = true;
}

void PhotonicAccelerator::watchdog_fire() {
  latch_error(kErrWatchdog);
  irq_ = true;
}

void PhotonicAccelerator::tick() {
  if (busy_cycles_ > 0 && --busy_cycles_ == 0) finish_operation();
  if (watchdog_cycles_ > 0 && --watchdog_cycles_ == 0) watchdog_fire();
}

void PhotonicAccelerator::skip_cycles(std::uint64_t n) {
  if (n == 0) return;
  if (busy_cycles_ > 0) {
    busy_cycles_ -= n < busy_cycles_ ? n : busy_cycles_;
    if (busy_cycles_ == 0) finish_operation();  // also disarms the watchdog
  }
  if (watchdog_cycles_ > 0) {
    watchdog_cycles_ -= n < watchdog_cycles_ ? n : watchdog_cycles_;
    if (watchdog_cycles_ == 0) watchdog_fire();
  }
}

void PhotonicAccelerator::inject_phase_fault(std::size_t phase_index,
                                             double delta_rad) {
  gemm_.engine().perturb_phase(phase_index, delta_rad);
}

void PhotonicAccelerator::set_read_trace(ReadTrace* trace) {
  trace_ = trace;
  spm_w_.set_read_trace(trace);
  spm_x_.set_read_trace(trace);
  spm_y_.set_read_trace(trace);
}

PhotonicAccelerator::Snapshot PhotonicAccelerator::snapshot() {
  Snapshot s;
  s.gemm = gemm_.snapshot();
  s.spm_w = spm_w_.snapshot();
  s.spm_x = spm_x_.snapshot();
  s.spm_y = spm_y_.snapshot();
  s.ctrl = ctrl_;
  s.cols = cols_;
  s.done = done_;
  s.irq = irq_;
  s.busy_cycles = busy_cycles_;
  s.total_busy_cycles = total_busy_cycles_;
  s.last_op_cycles = last_op_cycles_;
  s.pending_op = pending_op_;
  s.error = error_;
  s.err_cause = err_cause_;
  s.crc_w_expect = crc_w_expect_;
  s.crc_x_expect = crc_x_expect_;
  s.watchdog_cycles = watchdog_cycles_;
  return s;
}

void PhotonicAccelerator::restore(const Snapshot& s) {
  gemm_.restore(s.gemm);
  spm_w_.restore(s.spm_w);
  spm_x_.restore(s.spm_x);
  spm_y_.restore(s.spm_y);
  ctrl_ = s.ctrl;
  cols_ = s.cols;
  done_ = s.done;
  irq_ = s.irq;
  busy_cycles_ = s.busy_cycles;
  total_busy_cycles_ = s.total_busy_cycles;
  last_op_cycles_ = s.last_op_cycles;
  pending_op_ = s.pending_op;
  error_ = s.error;
  err_cause_ = s.err_cause;
  crc_w_expect_ = s.crc_w_expect;
  crc_x_expect_ = s.crc_x_expect;
  watchdog_cycles_ = s.watchdog_cycles;
}

}  // namespace aspen::sys
