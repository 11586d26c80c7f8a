#include "sysim/bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace aspen::sys {

void Bus::attach(std::uint32_t base, std::uint32_t size, BusDevice* dev) {
  if (dev == nullptr) throw std::invalid_argument("Bus::attach: null device");
  if (size == 0) throw std::invalid_argument("Bus::attach: zero size");
  for (const auto& r : regions_) {
    const bool overlap = base < r.base + r.size && r.base < base + size;
    if (overlap)
      throw std::invalid_argument("Bus::attach: overlapping region for " +
                                  dev->name());
  }
  regions_.push_back({base, size, dev});
}

const Bus::Region* Bus::find(std::uint32_t addr) const {
  // MRU hit first: the unsigned subtraction folds the two range checks
  // (addr >= base && addr < base + size) into one compare.
  if (mru_ < regions_.size()) {
    const Region& m = regions_[mru_];
    if (addr - m.base < m.size) return &m;
  }
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& r = regions_[i];
    if (addr - r.base < r.size) {
      mru_ = i;
      return &r;
    }
  }
  return nullptr;
}

Bus::Access Bus::read(std::uint32_t addr, unsigned size) {
  Access a;
  const Region* r = find(addr);
  if (r == nullptr) {
    a.fault = true;
    return a;
  }
  a.value = r->dev->read(addr - r->base, size);
  a.latency = bus_latency_ + r->dev->access_latency();
  return a;
}

Bus::Access Bus::write(std::uint32_t addr, std::uint32_t value,
                       unsigned size) {
  Access a;
  const Region* r = find(addr);
  if (r == nullptr) {
    a.fault = true;
    return a;
  }
  r->dev->write(addr - r->base, value, size);
  a.latency = bus_latency_ + r->dev->access_latency();
  a.activating = r->dev->write_is_activating(addr - r->base);
  return a;
}

Bus::DirectWindow Bus::direct_window(std::uint32_t addr) const {
  DirectWindow w;
  const Region* r = find(addr);
  if (r == nullptr) return w;
  // Region metadata is filled in even when the device exposes no span:
  // masters cache that as a negative entry and stop re-querying MMIO
  // regions on every access.
  w.base = r->base;
  w.size = r->size;
  w.latency = bus_latency_ + r->dev->access_latency();
  w.dev = r->dev;
  const BusDevice::DirectSpan span = r->dev->direct_span();
  if (span.data == nullptr || span.size == 0) return w;
  w.size = std::min(r->size, span.size);
  w.data = span.data;
  return w;
}

}  // namespace aspen::sys
