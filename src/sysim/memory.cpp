#include "sysim/memory.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace aspen::sys {

Memory::Memory(std::string name, std::uint32_t size, unsigned latency_cycles)
    : name_(std::move(name)), bytes_(size, 0), latency_(latency_cycles) {
  if (size == 0) throw std::invalid_argument("Memory: zero size");
}

std::uint8_t Memory::read_byte(std::uint32_t offset) const {
  std::uint8_t b = bytes_[offset];
  for (const auto& s : stuck_) {
    if (s.offset != offset) continue;
    if (s.value)
      b |= static_cast<std::uint8_t>(1u << s.bit);
    else
      b &= static_cast<std::uint8_t>(~(1u << s.bit));
  }
  return b;
}

std::uint32_t Memory::read(std::uint32_t offset, unsigned size) {
  // Bus-facing access: a region-boundary-crossing transaction (possible
  // under injected faults) reads as zero rather than killing the
  // simulation; host-side load/read_block stay strict.
  if (offset > bytes_.size() || size > bytes_.size() - offset) return 0;
  // Little-endian block copy instead of the per-byte assembly loop.
  if (stuck_.empty()) return load_le(bytes_.data() + offset, size);
  std::uint32_t v = 0;
  for (unsigned i = 0; i < size; ++i)
    v |= static_cast<std::uint32_t>(read_byte(offset + i)) << (8 * i);
  return v;
}

void Memory::write(std::uint32_t offset, std::uint32_t value, unsigned size) {
  if (offset > bytes_.size() || size > bytes_.size() - offset)
    return;  // see read()
  store_le(bytes_.data() + offset, value, size);
  mark_dirty(offset, size);
  notify(offset, size);
}

void Memory::load(std::uint32_t offset, const void* src, std::size_t n) {
  if (offset + n > bytes_.size())
    throw std::out_of_range(name_ + ": load past end");
  std::memcpy(bytes_.data() + offset, src, n);
  mark_dirty(offset, static_cast<std::uint32_t>(n));
  notify(offset, static_cast<std::uint32_t>(n));
}

void Memory::read_block(std::uint32_t offset, void* dst, std::size_t n) const {
  if (offset + n > bytes_.size())
    throw std::out_of_range(name_ + ": read_block past end");
  std::memcpy(dst, bytes_.data() + offset, n);
}

void Memory::fill(std::uint8_t value) {
  std::fill(bytes_.begin(), bytes_.end(), value);
  mark_dirty(0, size());
  notify(0, size());
}

void Memory::flip_bit(std::uint32_t offset, unsigned bit) {
  if (offset >= bytes_.size() || bit > 7)
    throw std::out_of_range(name_ + ": flip_bit out of range");
  bytes_[offset] ^= static_cast<std::uint8_t>(1u << bit);
  mark_dirty(offset, 1);
  notify(offset, 1);
}

void Memory::set_stuck_bit(std::uint32_t offset, unsigned bit, bool value) {
  if (offset >= bytes_.size() || bit > 7)
    throw std::out_of_range(name_ + ": set_stuck_bit out of range");
  stuck_.push_back({offset, static_cast<std::uint8_t>(bit), value});
  // The read transform changed: the whole span must be treated as dirty
  // (and direct_span() is revoked until the faults are cleared).
  notify(0, size());
}

void Memory::clear_faults() {
  stuck_.clear();
  notify(0, size());
}

Memory::Snapshot Memory::snapshot() {
  hold(std::make_shared<const Image>(bytes_));
  return {held_, stuck_};
}

void Memory::restore(const Snapshot& s) {
  if (s.size() != bytes_.size())
    throw std::invalid_argument(name_ + ": restore size mismatch");
  const Image& image = *s.bytes;
  const bool same_stuck = std::equal(
      stuck_.begin(), stuck_.end(), s.stuck.begin(), s.stuck.end(),
      [](const Stuck& a, const Stuck& b) {
        return a.offset == b.offset && a.bit == b.bit && a.value == b.value;
      });
  if (held_ == nullptr || !same_stuck) {
    std::memcpy(bytes_.data(), image.data(), bytes_.size());
    stuck_ = s.stuck;
    hold(s.bytes);
    // Contents and possibly the read transform changed: the whole span is
    // dirty (this also re-grants / revokes direct_span() visibility for
    // masters holding windows on this memory).
    notify(0, size());
    return;
  }
  const std::uint32_t n = size();
  std::uint32_t scan_lo = std::min(dirty_lo_, n);
  std::uint32_t scan_hi = std::min(dirty_hi_, n);
  if (held_ != s.bytes) {
    const ByteSpan d = held_delta(s.bytes);
    if (d.len > 0) {
      scan_lo = std::min(scan_lo, d.lo);
      scan_hi = std::max(scan_hi, d.lo + d.len);
    }
  }
  hold(s.bytes);
  // Chunked scan: contiguous runs of differing chunks are copied and
  // notified as one span, so observer invalidation stays proportional to
  // what actually changed.
  std::uint32_t run_lo = 0;
  bool in_run = false;
  for (std::uint32_t off = scan_lo; off < scan_hi; off += kScanChunk) {
    const std::uint32_t len = std::min(kScanChunk, scan_hi - off);
    const bool differs =
        std::memcmp(bytes_.data() + off, image.data() + off, len) != 0;
    if (differs && !in_run) {
      run_lo = off;
      in_run = true;
    } else if (!differs && in_run) {
      std::memcpy(bytes_.data() + run_lo, image.data() + run_lo, off - run_lo);
      notify(run_lo, off - run_lo);
      in_run = false;
    }
  }
  if (in_run) {
    std::memcpy(bytes_.data() + run_lo, image.data() + run_lo,
                scan_hi - run_lo);
    notify(run_lo, scan_hi - run_lo);
  }
}

ByteSpan Memory::held_delta(const std::shared_ptr<const Image>& other) {
  const auto same = [](const std::weak_ptr<const Image>& key,
                       const std::shared_ptr<const Image>& image) {
    return !key.owner_before(image) && !image.owner_before(key);
  };
  PairSpan* victim = &pairs_[0];
  for (PairSpan& e : pairs_) {
    if ((same(e.a, held_) && same(e.b, other)) ||
        (same(e.a, other) && same(e.b, held_))) {
      e.used = ++pair_clock_;
      return e.span;
    }
    if (e.used < victim->used) victim = &e;
  }
  *victim = {held_, other, differing_span(*held_, *other), ++pair_clock_};
  return victim->span;
}

ByteSpan differing_span(const std::vector<std::uint8_t>& a,
                        const std::vector<std::uint8_t>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("differing_span: image sizes differ");
  constexpr std::uint32_t kChunk = Memory::kScanChunk;
  const auto n = static_cast<std::uint32_t>(a.size());
  std::uint32_t lo = 0;
  while (lo < n) {
    const std::uint32_t len = std::min(kChunk, n - lo);
    if (std::memcmp(a.data() + lo, b.data() + lo, len) != 0) break;
    lo += len;
  }
  if (lo == n) return {};
  while (a[lo] == b[lo]) ++lo;  // stops inside the differing chunk
  // From the top down to lo: a[lo] != b[lo] bounds both loops.
  std::uint32_t hi = n;
  for (;;) {
    const std::uint32_t len = std::min(kChunk, hi - lo);
    if (std::memcmp(a.data() + hi - len, b.data() + hi - len, len) != 0) break;
    hi -= len;
  }
  while (a[hi - 1] == b[hi - 1]) --hi;
  return {lo, hi - lo};
}

}  // namespace aspen::sys
