#include "sysim/campaign_io.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace aspen::sys {
namespace {

constexpr std::uint32_t kMagic = 0x4E535041u;  // "APSN" little-endian

// ------------------------------------------------------------- primitives

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, 8);
    u64(bits);
  }
  void bytes(const void* p, std::size_t n) {
    if (n == 0) return;  // empty vectors hand over data() == nullptr
    const auto* s = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), s, s + n);
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), n_(size), pos_(0) {}

  std::uint8_t u8() {
    need(1);
    return p_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  void bytes(void* dst, std::size_t n) {
    if (n == 0) return;  // empty vectors hand over data() == nullptr
    need(n);
    std::memcpy(dst, p_ + pos_, n);
    pos_ += n;
  }
  /// Element count for a vector whose entries occupy >= `elem_bytes`
  /// each — bounds the allocation by the remaining payload so a corrupt
  /// length cannot demand terabytes.
  std::size_t count(std::size_t elem_bytes) {
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    if (elem_bytes > 0 && n > (n_ - pos_) / elem_bytes)
      throw fail("element count " + std::to_string(n) + " (>= " +
                     std::to_string(elem_bytes) +
                     " bytes each) exceeds the remaining payload (" +
                     std::to_string(n_ - pos_) + " bytes)",
                 at);
    return static_cast<std::size_t>(n);
  }
  /// A u64 count that must fit `int` (histogram counts and totals).
  int int_count(const char* what) {
    const std::size_t at = pos_;
    const std::uint64_t v = u64();
    if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
      throw fail(std::string(what) + " " + std::to_string(v) +
                     " does not fit int",
                 at);
    return static_cast<int>(v);
  }
  /// Read + validate a one-byte enum whose valid values are [0, max].
  std::uint8_t u8_enum(std::uint8_t max, const char* what) {
    const std::size_t at = pos_;
    const std::uint8_t v = u8();
    if (v > max)
      throw fail("invalid " + std::string(what) + " " + std::to_string(v) +
                     " (valid: 0.." + std::to_string(max) + ")",
                 at);
    return v;
  }
  void expect_end() const {
    if (pos_ != n_)
      throw fail("payload complete at byte offset " + std::to_string(pos_) +
                     " but " + std::to_string(n_ - pos_) +
                     " trailing bytes remain",
                 pos_);
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  /// Build a diagnostic tagged with the failure offset and payload size —
  /// the error-location convention every campaign_io message follows.
  [[nodiscard]] std::runtime_error fail(const std::string& what,
                                        std::size_t at) const {
    return std::runtime_error("campaign_io: " + what + " at byte offset " +
                              std::to_string(at) + " of " +
                              std::to_string(n_) + "-byte payload");
  }

 private:
  void need(std::uint64_t n) {
    if (n > n_ - pos_)
      throw fail("truncated payload: need " + std::to_string(n) +
                     " more bytes, only " + std::to_string(n_ - pos_) +
                     " remain",
                 pos_);
  }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_;
};

void put_header(Writer& w, PayloadKind kind) {
  w.u32(kMagic);
  w.u16(kCampaignWireVersion);
  w.u16(static_cast<std::uint16_t>(kind));
}

PayloadKind read_header(Reader& r) {
  const std::uint32_t magic = r.u32();
  if (magic != kMagic)
    throw r.fail("bad magic (not a campaign payload)", 0);
  const std::uint16_t version = r.u16();
  if (version != kCampaignWireVersion)
    throw r.fail("wire version " + std::to_string(version) + ", expected " +
                     std::to_string(kCampaignWireVersion),
                 4);
  const std::uint16_t got = r.u16();
  if (got < static_cast<std::uint16_t>(PayloadKind::kHistogram) ||
      got > static_cast<std::uint16_t>(PayloadKind::kProgress))
    throw r.fail("unknown payload kind " + std::to_string(got), 6);
  return static_cast<PayloadKind>(got);
}

void check_header(Reader& r, PayloadKind kind) {
  const PayloadKind got = read_header(r);
  if (got != kind)
    throw r.fail("payload kind " +
                     std::to_string(static_cast<std::uint16_t>(got)) +
                     ", expected " +
                     std::to_string(static_cast<std::uint16_t>(kind)),
                 6);
}

// ------------------------------------------------------- composite types

void put_spec(Writer& w, const FaultSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.target));
  w.u8(static_cast<std::uint8_t>(s.model));
  w.u64(s.cycle);
  w.u32(s.index);
  w.u32(s.bit);
  w.f64(s.phase_delta_rad);
}
FaultSpec get_spec(Reader& r) {
  FaultSpec s;
  s.target = static_cast<FaultTarget>(r.u8_enum(
      static_cast<std::uint8_t>(FaultTarget::kAccelPhase), "fault target"));
  s.model = static_cast<FaultModel>(r.u8_enum(
      static_cast<std::uint8_t>(FaultModel::kStuckAt1), "fault model"));
  s.cycle = r.u64();
  s.index = r.u32();
  s.bit = r.u32();
  s.phase_delta_rad = r.f64();
  return s;
}

void put_progress(Writer& w, const CampaignProgress& p) {
  w.u64(p.shard_seq);
  w.u64(p.trials_done);
  w.u64(p.trials_total);
}
CampaignProgress get_progress(Reader& r) {
  CampaignProgress p;
  p.shard_seq = r.u64();
  p.trials_done = r.u64();
  p.trials_total = r.u64();
  return p;
}

void put_spec_vec(Writer& w, const std::vector<FaultSpec>& specs) {
  w.u64(specs.size());
  for (const FaultSpec& s : specs) put_spec(w, s);
}
std::vector<FaultSpec> get_spec_vec(Reader& r) {
  std::vector<FaultSpec> specs(r.count(26));
  for (FaultSpec& s : specs) s = get_spec(r);
  return specs;
}

void put_histogram(Writer& w, const CampaignResult& res) {
  w.u64(res.counts.size());
  for (const auto& [outcome, count] : res.counts) {
    w.u8(static_cast<std::uint8_t>(outcome));
    w.u64(static_cast<std::uint64_t>(count));
  }
  w.u64(static_cast<std::uint64_t>(res.total));
}
CampaignResult get_histogram(Reader& r) {
  // Canonical form only: outcomes strictly increasing (no duplicate
  // whose later count would overwrite the earlier), every count and the
  // total within int, and the total equal to the sum of the counts.
  CampaignResult res;
  std::uint64_t sum = 0;
  const std::size_t n = r.count(9);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = r.pos();
    const auto outcome = static_cast<Outcome>(r.u8_enum(
        static_cast<std::uint8_t>(Outcome::kDetectedRecovered), "outcome"));
    if (!res.counts.empty() && outcome <= res.counts.rbegin()->first)
      throw r.fail("outcome " + std::to_string(static_cast<int>(outcome)) +
                       " repeated or out of order",
                   at);
    const int count = r.int_count("outcome count");
    res.counts.emplace(outcome, count);
    sum += static_cast<std::uint64_t>(count);
  }
  const std::size_t at = r.pos();
  res.total = r.int_count("histogram total");
  if (static_cast<std::uint64_t>(res.total) != sum)
    throw r.fail("histogram total " + std::to_string(res.total) +
                     " differs from the sum of its counts " +
                     std::to_string(sum),
                 at);
  return res;
}

}  // namespace

// ----------------------------------------------------------- public API

std::vector<std::uint8_t> serialize_histogram(const CampaignResult& r) {
  Writer w;
  put_header(w, PayloadKind::kHistogram);
  put_histogram(w, r);
  return w.take();
}

std::vector<std::uint8_t> serialize_shard(const CampaignShard& shard) {
  Writer w;
  put_header(w, PayloadKind::kShard);
  w.u64(shard.seq);
  w.u64(shard.golden.size());
  w.bytes(shard.golden.data(), shard.golden.size());
  w.u64(shard.golden_cycles);
  w.u64(shard.max_cycles);
  w.u32(shard.ladder_rungs);
  put_spec_vec(w, shard.specs);
  return w.take();
}

CampaignResult deserialize_histogram(const std::uint8_t* data,
                                     std::size_t size) {
  Reader r(data, size);
  check_header(r, PayloadKind::kHistogram);
  CampaignResult res = get_histogram(r);
  r.expect_end();
  return res;
}

CampaignShard deserialize_shard(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  check_header(r, PayloadKind::kShard);
  CampaignShard shard;
  shard.seq = r.u64();
  shard.golden.resize(r.count(1));
  r.bytes(shard.golden.data(), shard.golden.size());
  shard.golden_cycles = r.u64();
  shard.max_cycles = r.u64();
  shard.ladder_rungs = r.u32();
  shard.specs = get_spec_vec(r);
  r.expect_end();
  return shard;
}

std::vector<std::uint8_t> serialize_progress(const CampaignProgress& p) {
  Writer w;
  put_header(w, PayloadKind::kProgress);
  put_progress(w, p);
  return w.take();
}

CampaignProgress deserialize_progress(const std::uint8_t* data,
                                      std::size_t size) {
  Reader r(data, size);
  check_header(r, PayloadKind::kProgress);
  CampaignProgress p = get_progress(r);
  r.expect_end();
  return p;
}

PayloadKind payload_kind(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  return read_header(r);
}

std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload) {
  Writer w;
  w.u64(payload.size());
  w.bytes(payload.data(), payload.size());
  return w.take();
}

std::optional<std::vector<std::uint8_t>> FrameBuffer::next() {
  if (buf_.size() - pos_ < 8) return std::nullopt;
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i)
    len |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
  if (len > kMaxFrameBytes)
    throw std::runtime_error(
        "campaign_io: frame length " + std::to_string(len) +
        " exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte frame cap (corrupt stream)");
  if (buf_.size() - pos_ - 8 < len) return std::nullopt;
  std::vector<std::uint8_t> payload(buf_.begin() + pos_ + 8,
                                    buf_.begin() + pos_ + 8 + len);
  pos_ += 8 + static_cast<std::size_t>(len);
  // Reclaim consumed prefix once it dominates the buffer, keeping feed()
  // amortized O(1) over long worker streams.
  if (pos_ > (1u << 16) && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return payload;
}

CampaignResult merge_histograms(const std::vector<CampaignResult>& shards) {
  CampaignResult merged;
  for (const CampaignResult& s : shards) {
    for (const auto& [outcome, count] : s.counts)
      merged.counts[outcome] += count;
    merged.total += s.total;
  }
  return merged;
}

std::vector<CampaignShard> plan_shards(FaultCampaign& campaign,
                                       const std::vector<FaultSpec>& specs,
                                       std::size_t shard_count,
                                       std::uint32_t ladder_rungs) {
  if (campaign.recovery_enabled())
    throw std::invalid_argument(
        "plan_shards: a campaign with recovery enabled runs in-process "
        "only (workers grade without the recovery reader)");
  if (shard_count == 0) shard_count = 1;
  if (shard_count > specs.size() && !specs.empty())
    shard_count = specs.size();
  std::vector<CampaignShard> shards;
  shards.reserve(shard_count);
  const std::size_t per = specs.empty() ? 0 : specs.size() / shard_count;
  for (std::size_t k = 0; k < shard_count; ++k) {
    CampaignShard shard;
    shard.seq = k;
    shard.golden = campaign.golden();
    shard.golden_cycles = campaign.golden_cycles();
    shard.max_cycles = campaign.max_cycles();
    shard.ladder_rungs = ladder_rungs;
    const std::size_t lo = k * per;
    const std::size_t hi = (k + 1 == shard_count) ? specs.size() : lo + per;
    shard.specs.assign(specs.begin() + static_cast<std::ptrdiff_t>(lo),
                       specs.begin() + static_cast<std::ptrdiff_t>(hi));
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace aspen::sys
