#include "sysim/dma.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace aspen::sys {

DmaEngine::DmaEngine(Bus& bus, unsigned bytes_per_cycle)
    : bus_(bus), beat_(bytes_per_cycle) {
  if (bytes_per_cycle == 0)
    throw std::invalid_argument("DmaEngine: beat width must be >= 1 byte");
}

std::uint32_t DmaEngine::read(std::uint32_t offset, unsigned /*size*/) {
  switch (offset) {
    case kRegSrc: return src_;
    case kRegDst: return dst_;
    case kRegLen: return len_;
    case kRegCtrl: return ctrl_;
    case kRegStatus:
      return (busy_ ? kStatusBusy : 0u) | (done_ ? kStatusDone : 0u) |
             (error_ ? kStatusError : 0u);
    default: return 0;
  }
}

void DmaEngine::write(std::uint32_t offset, std::uint32_t value,
                      unsigned /*size*/) {
  switch (offset) {
    case kRegSrc: src_ = value; break;
    case kRegDst: dst_ = value; break;
    case kRegLen: len_ = value; break;
    case kRegCtrl:
      ctrl_ = value;
      if ((value & kCtrlStart) && !busy_ && len_ > 0) {
        busy_ = true;
        done_ = false;
        error_ = false;
        cursor_ = 0;
      }
      break;
    case kRegStatus:
      if (value & kStatusDone) {
        done_ = false;
        irq_ = false;
      }
      if (value & kStatusError) {
        error_ = false;
        irq_ = false;
      }
      break;
    default: break;
  }
}

DmaEngine::BulkPath DmaEngine::resolve_bulk() const {
  BulkPath p;
  if (!busy_ || cursor_ >= len_) return p;
  const std::uint32_t remaining = len_ - cursor_;
  const std::uint32_t src_addr = src_ + cursor_;
  const std::uint32_t dst_addr = dst_ + cursor_;
  // A forward per-beat copy through overlapping ranges propagates bytes
  // written earlier in the same transfer; one memcpy would not. Rare and
  // odd — leave it to the exact per-cycle path.
  if (src_ + cursor_ < dst_ + len_ && dst_ + cursor_ < src_ + len_) return p;
  const Bus::DirectWindow sw = bus_.direct_window(src_addr);
  const Bus::DirectWindow dw = bus_.direct_window(dst_addr);
  if (sw.data == nullptr || dw.data == nullptr) return p;
  if (remaining > sw.size || src_addr - sw.base > sw.size - remaining)
    return p;
  if (remaining > dw.size || dst_addr - dw.base > dw.size - remaining)
    return p;
  p.src = sw.data + (src_addr - sw.base);
  p.dst = dw.data + (dst_addr - dw.base);
  p.dst_dev = dw.dev;
  p.dst_dev_offset = dst_addr - dw.base;
  return p;
}

std::uint64_t DmaEngine::advance_cursor(std::uint32_t& cursor,
                                        std::uint64_t ticks) const {
  // Closed form: the event loop and every device catch-up call this
  // while a transfer is in flight, so it must not walk the remainder.
  // Src/dst congruence mod 4 is cursor-invariant. Never congruent: every
  // tick moves beat_ single bytes. Congruent: once the cursor is
  // word-aligned with at least one full tick of words left, every tick
  // moves word_tick bytes. Those stretches are a division; the short
  // alignment prologue and the sub-tick tail are simulated tick by tick.
  const bool congruent = (src_ + cursor) % 4 == (dst_ + cursor) % 4;
  const std::uint32_t word_tick = 4 * ((beat_ + 3) / 4);
  std::uint64_t used = 0;
  while (cursor < len_ && used < ticks) {
    const std::uint32_t remaining = len_ - cursor;
    std::uint32_t step = 0;
    if (!congruent)
      step = beat_;
    else if ((src_ + cursor) % 4 == 0)
      step = word_tick;
    if (step != 0 && remaining >= step) {
      const std::uint64_t n =
          std::min<std::uint64_t>(ticks - used, remaining / step);
      cursor += static_cast<std::uint32_t>(n) * step;
      used += n;
      continue;
    }
    ++used;  // one tick of tick()'s beat loop
    unsigned moved = 0;
    while (moved < beat_ && cursor < len_) {
      const bool word_ok = len_ - cursor >= 4 &&
                           ((src_ + cursor) % 4 == 0) &&
                           ((dst_ + cursor) % 4 == 0);
      const unsigned size = word_ok ? 4 : 1;
      cursor += size;
      moved += size;
    }
  }
  return used;
}

std::uint64_t DmaEngine::bulk_cycles_remaining() const {
  if (resolve_bulk().src == nullptr) return 0;
  std::uint32_t cursor = cursor_;
  return advance_cursor(cursor, std::numeric_limits<std::uint64_t>::max());
}

void DmaEngine::skip_cycles(std::uint64_t n) {
  if (!busy_ || n == 0) return;
  const BulkPath p = resolve_bulk();
  if (p.src != nullptr) {
    std::uint32_t cursor = cursor_;
    (void)advance_cursor(cursor, n);
    const std::uint32_t bytes = cursor - cursor_;
    std::memcpy(p.dst, p.src, bytes);
    // Keep masters caching state derived from the destination (the
    // CPU's predecoded instructions) coherent, exactly as the per-beat
    // bus writes would have.
    p.dst_dev->direct_span_written(p.dst_dev_offset, bytes);
    cursor_ = cursor;
    if (cursor_ >= len_) {
      busy_ = false;
      done_ = true;
      if (ctrl_ & kCtrlIrqEn) irq_ = true;
    }
    return;
  }
  while (busy_ && n-- > 0) tick();
}

void DmaEngine::restore(const Snapshot& s) {
  src_ = s.src;
  dst_ = s.dst;
  len_ = s.len;
  ctrl_ = s.ctrl;
  cursor_ = s.cursor;
  busy_ = s.busy;
  done_ = s.done;
  irq_ = s.irq;
  error_ = s.error;
}

void DmaEngine::abort_transfer() {
  busy_ = false;
  error_ = true;
  if (ctrl_ & kCtrlIrqEn) irq_ = true;
}

void DmaEngine::tick() {
  if (!busy_) return;
  unsigned moved = 0;
  while (moved < beat_ && cursor_ < len_) {
    // Word transfers when aligned and enough remaining; bytes otherwise.
    const std::uint32_t remaining = len_ - cursor_;
    const bool word_ok = remaining >= 4 && ((src_ + cursor_) % 4 == 0) &&
                         ((dst_ + cursor_) % 4 == 0);
    const unsigned size = word_ok ? 4 : 1;
    const Bus::Access rd = bus_.read(src_ + cursor_, size);
    if (rd.fault) {
      abort_transfer();
      return;
    }
    const Bus::Access wr = bus_.write(dst_ + cursor_, rd.value, size);
    if (wr.fault) {
      abort_transfer();
      return;
    }
    cursor_ += size;
    moved += size;
  }
  if (cursor_ >= len_) {
    busy_ = false;
    done_ = true;
    if (ctrl_ & kCtrlIrqEn) irq_ = true;
  }
}

}  // namespace aspen::sys
