#include "sysim/campaign_io.hpp"

#include <cstring>
#include <limits>
#include <sstream>
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
  void b(bool v) { u8(v ? 1 : 0); }
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
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
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
  bool b() { return u8() != 0; }
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
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(p_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
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
  /// Validate that `n_elems` entries of `elem_bytes` each fit in the
  /// remaining payload (for counts read as separate dimensions, e.g.
  /// matrix rows x cols).
  void need_elems(std::uint64_t n_elems, std::size_t elem_bytes) {
    if (elem_bytes > 0 && n_elems > (n_ - pos_) / elem_bytes)
      throw fail("element count " + std::to_string(n_elems) + " (>= " +
                     std::to_string(elem_bytes) +
                     " bytes each) exceeds the remaining payload (" +
                     std::to_string(n_ - pos_) + " bytes)",
                 pos_);
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
  if (got < 1 || got > static_cast<std::uint16_t>(PayloadKind::kJournal))
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

void put_f64_vec(Writer& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (const double d : v) w.f64(d);
}
std::vector<double> get_f64_vec(Reader& r) {
  const std::size_t n = r.count(8);
  std::vector<double> v(n);
  for (auto& d : v) d = r.f64();
  return v;
}

void put_cmat(Writer& w, const lina::CMat& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  for (const lina::cplx& z : m.raw()) {
    w.f64(z.real());
    w.f64(z.imag());
  }
}
lina::CMat get_cmat(Reader& r) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  if (rows != 0 && cols > std::numeric_limits<std::uint64_t>::max() / rows)
    throw std::runtime_error("campaign_io: matrix dimensions overflow");
  r.need_elems(rows * cols, 16);
  lina::CMat m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (lina::cplx& z : m.raw()) {
    const double re = r.f64();
    const double im = r.f64();
    z = {re, im};
  }
  return m;
}

void put_rng(Writer& w, const lina::Rng& rng) {
  // The standard stream representation of mt19937_64 round-trips the
  // engine state exactly (decimal words, space-separated).
  lina::Rng copy = rng;
  std::ostringstream os;
  os << copy.engine();
  w.str(os.str());
}
lina::Rng get_rng(Reader& r) {
  lina::Rng rng;
  std::istringstream is(r.str());
  is >> rng.engine();
  if (is.fail()) throw std::runtime_error("campaign_io: bad rng state");
  return rng;
}

void put_memory(Writer& w, const Memory::Snapshot& s) {
  w.u64(s.size());
  if (s.bytes) w.bytes(s.bytes->data(), s.size());
  w.u64(s.stuck.size());
  for (const Memory::Stuck& st : s.stuck) {
    w.u32(st.offset);
    w.u8(st.bit);
    w.b(st.value);
  }
}
Memory::Snapshot get_memory(Reader& r) {
  Memory::Snapshot s;
  auto image = std::make_shared<Memory::Image>(r.count(1));
  r.bytes(image->data(), image->size());
  s.bytes = std::move(image);
  s.stuck.resize(r.count(6));
  for (Memory::Stuck& st : s.stuck) {
    st.offset = r.u32();
    st.bit = r.u8();
    st.value = r.b();
  }
  return s;
}

void put_dma(Writer& w, const DmaEngine::Snapshot& s) {
  w.u32(s.src);
  w.u32(s.dst);
  w.u32(s.len);
  w.u32(s.ctrl);
  w.u32(s.cursor);
  w.b(s.busy);
  w.b(s.done);
  w.b(s.irq);
  w.b(s.error);
}
DmaEngine::Snapshot get_dma(Reader& r) {
  DmaEngine::Snapshot s;
  s.src = r.u32();
  s.dst = r.u32();
  s.len = r.u32();
  s.ctrl = r.u32();
  s.cursor = r.u32();
  s.busy = r.b();
  s.done = r.b();
  s.irq = r.b();
  s.error = r.b();
  return s;
}

void put_mesh(Writer& w, const mesh::PhysicalMesh::Snapshot& s) {
  put_f64_vec(w, s.phases);
  w.f64(s.drift_time_s);
  w.f64(s.detuning_nm);
}
mesh::PhysicalMesh::Snapshot get_mesh(Reader& r) {
  mesh::PhysicalMesh::Snapshot s;
  s.phases = get_f64_vec(r);
  s.drift_time_s = r.f64();
  s.detuning_nm = r.f64();
  return s;
}

void put_engine(Writer& w, const core::MvmEngine::Snapshot& s) {
  put_mesh(w, s.mesh_u);
  put_mesh(w, s.mesh_v);
  put_cmat(w, s.weight);
  put_cmat(w, s.svd.u);
  put_f64_vec(w, s.svd.sigma);
  put_cmat(w, s.svd.v);
  put_f64_vec(w, s.attenuation);
  w.f64(s.sigma_max);
  put_cmat(w, s.t_phys);
  w.f64(s.gain.real());
  w.f64(s.gain.imag());
  w.f64(s.fidelity);
  w.f64(s.pcm_drift_time_s);
  put_rng(w, s.rng);
  w.u64(s.counters.mvm_ops);
  w.u64(s.counters.program_ops);
  w.f64(s.counters.busy_time_s);
  w.f64(s.counters.weight_write_energy_j);
  w.b(s.weights_clean);
}
core::MvmEngine::Snapshot get_engine(Reader& r) {
  core::MvmEngine::Snapshot s;
  s.mesh_u = get_mesh(r);
  s.mesh_v = get_mesh(r);
  s.weight = get_cmat(r);
  s.svd.u = get_cmat(r);
  s.svd.sigma = get_f64_vec(r);
  s.svd.v = get_cmat(r);
  s.attenuation = get_f64_vec(r);
  s.sigma_max = r.f64();
  s.t_phys = get_cmat(r);
  const double gr = r.f64();
  const double gi = r.f64();
  s.gain = {gr, gi};
  s.fidelity = r.f64();
  s.pcm_drift_time_s = r.f64();
  s.rng = get_rng(r);
  s.counters.mvm_ops = r.u64();
  s.counters.program_ops = r.u64();
  s.counters.busy_time_s = r.f64();
  s.counters.weight_write_energy_j = r.f64();
  s.weights_clean = r.b();
  return s;
}

void put_gemm(Writer& w, const core::GemmCore::Snapshot& s) {
  put_engine(w, s.engine);
  w.u64(s.stats.symbols);
  w.f64(s.stats.wall_time_s);
  w.u64(s.stats.macs);
  w.f64(s.stats.modulator_energy_j);
  w.f64(s.stats.adc_energy_j);
  w.f64(s.stats.laser_energy_j);
  w.f64(s.stats.weight_write_energy_j);
  w.u64(s.channel_transfer.size());
  for (const lina::CMat& m : s.channel_transfer) put_cmat(w, m);
  w.u64(s.abft.columns_checked);
  w.u64(s.abft.detected);
  w.u64(s.abft.corrected);
  w.u64(s.abft.uncorrectable);
}
core::GemmCore::Snapshot get_gemm(Reader& r) {
  core::GemmCore::Snapshot s;
  s.engine = get_engine(r);
  s.stats.symbols = r.u64();
  s.stats.wall_time_s = r.f64();
  s.stats.macs = r.u64();
  s.stats.modulator_energy_j = r.f64();
  s.stats.adc_energy_j = r.f64();
  s.stats.laser_energy_j = r.f64();
  s.stats.weight_write_energy_j = r.f64();
  s.channel_transfer.resize(r.count(16));
  for (lina::CMat& m : s.channel_transfer) m = get_cmat(r);
  s.abft.columns_checked = r.u64();
  s.abft.detected = r.u64();
  s.abft.corrected = r.u64();
  s.abft.uncorrectable = r.u64();
  return s;
}

void put_pe(Writer& w, const PhotonicAccelerator::Snapshot& s) {
  put_gemm(w, s.gemm);
  put_memory(w, s.spm_w);
  put_memory(w, s.spm_x);
  put_memory(w, s.spm_y);
  w.u32(s.ctrl);
  w.u32(s.cols);
  w.b(s.done);
  w.b(s.irq);
  w.u64(s.busy_cycles);
  w.u64(s.total_busy_cycles);
  w.u32(s.last_op_cycles);
  w.u32(s.pending_op);
  w.b(s.error);
  w.u32(s.err_cause);
  w.u32(s.crc_w_expect);
  w.u32(s.crc_x_expect);
  w.u64(s.watchdog_cycles);
}
PhotonicAccelerator::Snapshot get_pe(Reader& r) {
  PhotonicAccelerator::Snapshot s;
  s.gemm = get_gemm(r);
  s.spm_w = get_memory(r);
  s.spm_x = get_memory(r);
  s.spm_y = get_memory(r);
  s.ctrl = r.u32();
  s.cols = r.u32();
  s.done = r.b();
  s.irq = r.b();
  s.busy_cycles = r.u64();
  s.total_busy_cycles = r.u64();
  s.last_op_cycles = r.u32();
  s.pending_op = r.u32();
  s.error = r.b();
  s.err_cause = r.u32();
  s.crc_w_expect = r.u32();
  s.crc_x_expect = r.u32();
  s.watchdog_cycles = r.u64();
  return s;
}

void put_cpu(Writer& w, const rv::Cpu::Snapshot& s) {
  for (const std::uint32_t v : s.regs) w.u32(v);
  for (const std::uint32_t v : s.stuck_or) w.u32(v);
  for (const std::uint32_t v : s.stuck_and) w.u32(v);
  w.b(s.reg_faults_armed);
  w.u32(s.pc);
  w.u64(s.cycles);
  w.u64(s.instret);
  w.u32(s.stall);
  w.b(s.irq);
  w.b(s.wfi);
  w.u8(static_cast<std::uint8_t>(s.halt));
  w.u32(s.mstatus);
  w.u32(s.mie);
  w.u32(s.mip);
  w.u32(s.mtvec);
  w.u32(s.mscratch);
  w.u32(s.mepc);
  w.u32(s.mcause);
  w.u32(s.mtval);
}
rv::Cpu::Snapshot get_cpu(Reader& r) {
  rv::Cpu::Snapshot s;
  for (std::uint32_t& v : s.regs) v = r.u32();
  for (std::uint32_t& v : s.stuck_or) v = r.u32();
  for (std::uint32_t& v : s.stuck_and) v = r.u32();
  s.reg_faults_armed = r.b();
  s.pc = r.u32();
  s.cycles = r.u64();
  s.instret = r.u64();
  s.stall = r.u32();
  s.irq = r.b();
  s.wfi = r.b();
  s.halt = static_cast<rv::Halt>(r.u8_enum(
      static_cast<std::uint8_t>(rv::Halt::kIllegal), "halt reason"));
  s.mstatus = r.u32();
  s.mie = r.u32();
  s.mip = r.u32();
  s.mtvec = r.u32();
  s.mscratch = r.u32();
  s.mepc = r.u32();
  s.mcause = r.u32();
  s.mtval = r.u32();
  return s;
}

void put_system(Writer& w, const System::SystemSnapshot& s) {
  w.u64(s.cycle);
  put_memory(w, s.dram);
  put_dma(w, s.dma);
  w.u64(s.pes.size());
  for (const PhotonicAccelerator::Snapshot& pe : s.pes) put_pe(w, pe);
  put_cpu(w, s.cpu);
}
System::SystemSnapshot get_system(Reader& r) {
  System::SystemSnapshot s;
  s.cycle = r.u64();
  s.dram = get_memory(r);
  s.dma = get_dma(r);
  s.pes.resize(r.count(64));
  for (PhotonicAccelerator::Snapshot& pe : s.pes) pe = get_pe(r);
  s.cpu = get_cpu(r);
  return s;
}

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

void put_point(Writer& w, const SweepPoint& p) {
  w.u32(p.cell);
  w.u8(static_cast<std::uint8_t>(p.target));
  w.u8(static_cast<std::uint8_t>(p.model));
  w.b(p.pcm_weights);
  w.f64(p.pcm_drift_time_s);
  w.f64(p.temperature_k);
  w.u32(static_cast<std::uint32_t>(p.adc_bits));
  w.b(p.abft);
}
SweepPoint get_point(Reader& r) {
  SweepPoint p;
  p.cell = r.u32();
  p.target = static_cast<FaultTarget>(r.u8_enum(
      static_cast<std::uint8_t>(FaultTarget::kAccelPhase), "fault target"));
  p.model = static_cast<FaultModel>(r.u8_enum(
      static_cast<std::uint8_t>(FaultModel::kStuckAt1), "fault model"));
  p.pcm_weights = r.b();
  p.pcm_drift_time_s = r.f64();
  p.temperature_k = r.f64();
  p.adc_bits = static_cast<int>(r.u32());
  p.abft = r.b();
  return p;
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
  CampaignResult res;
  const std::size_t n = r.count(9);
  for (std::size_t i = 0; i < n; ++i) {
    const auto outcome = static_cast<Outcome>(r.u8_enum(
        static_cast<std::uint8_t>(Outcome::kDetectedRecovered), "outcome"));
    res.counts[outcome] = static_cast<int>(r.u64());
  }
  res.total = static_cast<int>(r.u64());
  return res;
}

}  // namespace

// ----------------------------------------------------------- public API

std::vector<std::uint8_t> serialize_snapshot(const System::SystemSnapshot& s) {
  Writer w;
  put_header(w, PayloadKind::kSnapshot);
  put_system(w, s);
  return w.take();
}

std::vector<std::uint8_t> serialize_specs(const std::vector<FaultSpec>& specs) {
  Writer w;
  put_header(w, PayloadKind::kSpecBatch);
  put_spec_vec(w, specs);
  return w.take();
}

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
  put_point(w, shard.point);
  put_system(w, shard.staged);
  w.u64(shard.golden.size());
  w.bytes(shard.golden.data(), shard.golden.size());
  w.u64(shard.fallback_golden.size());
  w.bytes(shard.fallback_golden.data(), shard.fallback_golden.size());
  w.u64(shard.golden_cycles);
  w.u64(shard.max_cycles);
  w.u32(shard.ladder_rungs);
  put_spec_vec(w, shard.specs);
  return w.take();
}

System::SystemSnapshot deserialize_snapshot(const std::uint8_t* data,
                                            std::size_t size) {
  Reader r(data, size);
  check_header(r, PayloadKind::kSnapshot);
  System::SystemSnapshot s = get_system(r);
  r.expect_end();
  return s;
}

std::vector<FaultSpec> deserialize_specs(const std::uint8_t* data,
                                         std::size_t size) {
  Reader r(data, size);
  check_header(r, PayloadKind::kSpecBatch);
  std::vector<FaultSpec> specs = get_spec_vec(r);
  r.expect_end();
  return specs;
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
  shard.point = get_point(r);
  shard.staged = get_system(r);
  shard.golden.resize(r.count(1));
  r.bytes(shard.golden.data(), shard.golden.size());
  shard.fallback_golden.resize(r.count(1));
  r.bytes(shard.fallback_golden.data(), shard.fallback_golden.size());
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

std::vector<std::uint8_t> serialize_journal_entry(const JournalEntry& e) {
  Writer w;
  put_header(w, PayloadKind::kJournal);
  w.u64(e.shard_seq);
  put_histogram(w, e.hist);
  return w.take();
}

JournalEntry deserialize_journal_entry(const std::uint8_t* data,
                                       std::size_t size) {
  Reader r(data, size);
  check_header(r, PayloadKind::kJournal);
  JournalEntry e;
  e.shard_seq = r.u64();
  e.hist = get_histogram(r);
  r.expect_end();
  return e;
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
                                       std::uint32_t ladder_rungs,
                                       const SweepPoint& point,
                                       std::uint64_t first_seq) {
  if (shard_count == 0) shard_count = 1;
  if (shard_count > specs.size() && !specs.empty())
    shard_count = specs.size();
  std::vector<CampaignShard> shards;
  shards.reserve(shard_count);
  const std::size_t per = specs.empty() ? 0 : specs.size() / shard_count;
  for (std::size_t k = 0; k < shard_count; ++k) {
    CampaignShard shard;
    shard.seq = first_seq + k;
    shard.point = point;
    shard.staged = campaign.staged_snapshot();
    shard.golden = campaign.golden();
    shard.fallback_golden = campaign.fallback_golden();
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
