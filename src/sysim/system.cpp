#include "sysim/system.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace aspen::sys {

System::System(SystemConfig cfg) : cfg_(cfg), bus_(cfg.bus_latency) {
  if (cfg_.num_pes == 0) throw std::invalid_argument("System: num_pes == 0");
  dram_ = std::make_unique<Memory>("dram", cfg_.dram_size, cfg_.dram_latency);
  bus_.attach(cfg_.dram_base, cfg_.dram_size, dram_.get());

  dma_ = std::make_unique<DmaEngine>(bus_, cfg_.dma_bytes_per_cycle);
  bus_.attach(cfg_.dma_base, 0x1000, dma_.get());

  for (std::size_t i = 0; i < cfg_.num_pes; ++i) {
    AcceleratorConfig pe_cfg = cfg_.accel;
    // Distinct noise streams / dies per PE.
    pe_cfg.gemm.mvm.noise_seed += i;
    pe_cfg.gemm.mvm.errors.seed += i;
    pes_.push_back(std::make_unique<PhotonicAccelerator>(pe_cfg));
    PhotonicAccelerator* pe = pes_.back().get();
    const std::uint32_t pe_base =
        cfg_.accel_base + static_cast<std::uint32_t>(i) * cfg_.accel_stride;
    // MMR block through the device decode; the SPM windows map straight
    // onto their backing memories, skipping one dispatch layer on the
    // copy-loop hot path. The SPMs report the same access latency the
    // device does, so bus-visible timing is unchanged; offsets beyond an
    // SPM's populated bytes keep the read-0/ignore behavior the device
    // decode provided (Memory is lenient bus-side).
    bus_.attach(pe_base, PhotonicAccelerator::kSpmWBase, pe);
    bus_.attach(pe_base + PhotonicAccelerator::kSpmWBase, 0x1000,
                &pe->spm_w());
    bus_.attach(pe_base + PhotonicAccelerator::kSpmXBase, 0x1000,
                &pe->spm_x());
    bus_.attach(pe_base + PhotonicAccelerator::kSpmYBase, 0x1000,
                &pe->spm_y());
  }

  rv::CpuConfig cpu_cfg = cfg_.cpu;
  cpu_cfg.reset_pc = cfg_.dram_base;
  cpu_ = std::make_unique<rv::Cpu>(bus_, cpu_cfg);
}

void System::load_program(const std::vector<std::uint32_t>& words) {
  dram_->load(0, words.data(), words.size() * 4);
}

void System::write_dram(std::uint32_t offset, const void* src,
                        std::size_t n) {
  dram_->load(offset, src, n);
}

void System::read_dram(std::uint32_t offset, void* dst, std::size_t n) const {
  dram_->read_block(offset, dst, n);
}

void System::tick() {
  if (trace_ != nullptr) trace_->now = cycle_;
  bool irq = dma_->irq_pending();
  for (const auto& pe : pes_) irq = irq || pe->irq_pending();
  cpu_->set_irq(irq);
  cpu_->tick();
  dma_->tick();
  for (const auto& pe : pes_) pe->tick();
  ++cycle_;
  ++stats_.ticks;
  if (trace_ != nullptr) trace_->now = ReadTrace::kEndOfRun;
}

void System::set_read_trace(ReadTrace* trace) {
  trace_ = trace;
  cpu_->set_read_trace(trace);
  dram_->set_read_trace(trace);
  for (const auto& pe : pes_) pe->set_read_trace(trace);
}

std::uint64_t System::scan_devices(bool& line) const {
  // The only per-cycle side effects of a busy device are its final
  // DONE/IRQ edges: the DMA completing its transfer, a PE completing its
  // optical operation, or an armed watchdog expiring. A busy DMA moves
  // data every cycle, but while both endpoints resolve to raw memory
  // spans that movement is bulk-movable in skip_cycles; otherwise
  // (MMIO endpoint, overlap, revoked span) it must tick.
  std::uint64_t edge = std::numeric_limits<std::uint64_t>::max();
  line = dma_->irq_pending();
  if (dma_->busy()) edge = dma_->bulk_cycles_remaining();
  for (const auto& pe : pes_) {
    line = line || pe->irq_pending();
    if (pe->busy()) edge = std::min(edge, pe->busy_cycles_remaining());
    if (pe->watchdog_armed())
      edge = std::min(edge, pe->watchdog_cycles_remaining());
  }
  return edge;
}

void System::advance_devices(std::uint64_t n) {
  dma_->skip_cycles(n);
  for (const auto& pe : pes_) pe->skip_cycles(n);
}

void System::skip_cycles(std::uint64_t n) {
  cpu_->skip_cycles(n);
  advance_devices(n);
  cycle_ += n;
  ++stats_.skips;
  stats_.skipped_cycles += n;
}

void System::catch_up(std::uint64_t issue_cycle) {
  const std::uint64_t target = issue_cycle + cpu_offset_;
  if (target <= devices_at_) return;
  advance_devices(target - devices_at_);
  devices_at_ = target;
  ++stats_.catch_ups;
}

bool System::devices_still() const {
  // Between device edges a watchdog's count is the only register that
  // moves, and an in-flight DMA the only memory writer besides the CPU.
  if (dma_->busy()) return false;
  for (const auto& pe : pes_)
    if (pe->watchdog_armed()) return false;
  return true;
}

void System::spin_skipped(std::uint64_t cycles) {
  ++stats_.spin_skips;
  stats_.spin_cycles += cycles;
}

bool System::burst(std::uint64_t window, bool line) {
  if (cfg_.cpu.legacy_decode || trace_ != nullptr) return false;
  // The scan only lets a busy DMA through when its transfer is
  // bulk-movable, so its remaining spans are plain memory.
  rv::DmaInFlight spans;
  const rv::DmaInFlight* dma = nullptr;
  if (dma_->busy()) {
    const DmaEngine::Snapshot d = dma_->snapshot();
    spans.src = {d.src + d.cursor, d.src + d.len};
    spans.dst = {d.dst + d.cursor, d.dst + d.len};
    dma = &spans;
  }
  devices_at_ = cycle_;
  cpu_offset_ = cycle_ - cpu_->cycles();
  cpu_->set_irq(line);
  const std::uint64_t n = cpu_->run_burst(window, *this, dma);
  if (n == 0) return false;
  cycle_ += n;
  advance_devices(cycle_ - devices_at_);
  ++stats_.bursts;
  stats_.burst_cycles += n;
  return true;
}

void System::run_until(std::uint64_t target) {
  if (!cfg_.event_driven) {
    while (!cpu_->halted() && cycle_ < target) tick();
    return;
  }
  while (!cpu_->halted() && cycle_ < target) {
    bool line = false;
    const std::uint64_t edge = scan_devices(line);
    if (edge == 0) {  // the DMA moves one bus beat per cycle
      tick();
      continue;
    }
    const std::uint64_t window = std::min(edge, target - cycle_);
    if (cpu_->stall_remaining() > 0) {
      skip_cycles(std::min<std::uint64_t>(cpu_->stall_remaining(), window));
    } else if (cpu_->waiting_for_interrupt()) {
      // The CPU samples the line at the top of each non-stalled tick: a
      // high line wakes it next tick, a low one cannot rise before the
      // edge.
      if (line)
        tick();
      else
        skip_cycles(window);
    } else if (!burst(window, line)) {
      tick();
    }
  }
}

System::SystemSnapshot System::snapshot() {
  // An unpublished direct store leaves a memory's watermark clean while
  // its bytes differ from the held image, which the snapshot would share.
  cpu_->publish_store_spans();
  SystemSnapshot s;
  s.cycle = cycle_;
  s.dram = dram_->snapshot();
  s.dma = dma_->snapshot();
  s.pes.reserve(pes_.size());
  for (const auto& pe : pes_) s.pes.push_back(pe->snapshot());
  s.cpu = cpu_->snapshot();
  return s;
}

void System::restore(const SystemSnapshot& s) {
  bool fits = s.pes.size() == pes_.size() && s.dram.size() == dram_->size();
  for (std::size_t i = 0; fits && i < pes_.size(); ++i)
    fits = pes_[i]->fits(s.pes[i]);
  if (!fits)
    throw std::invalid_argument(
        "System::restore: snapshot from a differently configured system");
  // The CPU's raw-span stores are the one mutation path the memories
  // cannot see; publishing them first completes the dirty watermarks the
  // memory restores scan.
  cpu_->publish_store_spans();
  // The memories restore while the CPU still holds its windows, so every
  // notification lands on a live window and invalidates exactly the
  // blocks covering changed bytes.
  dram_->restore(s.dram);
  dma_->restore(s.dma);
  for (std::size_t i = 0; i < pes_.size(); ++i) pes_[i]->restore(s.pes[i]);
  cpu_->restore(s.cpu);
  cycle_ = s.cycle;
}

System::RunResult System::run() {
  RunResult r;
  run_until(cfg_.max_cycles);
  r.cycles = cpu_->cycles();
  r.instret = cpu_->instret();
  r.halt = cpu_->halt_reason();
  r.exit_code = cpu_->halted() ? cpu_->exit_code() : 0;
  r.timed_out = !cpu_->halted();
  return r;
}

}  // namespace aspen::sys
