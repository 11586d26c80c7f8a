#include "core/mvm_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lina/philox.hpp"
#include "photonics/units.hpp"

namespace aspen::core {

using lina::CMat;
using lina::cplx;
using lina::CVec;

namespace {
/// Draw kinds of the noise counter.
constexpr std::uint32_t kDetectorNoise = 0;
constexpr std::uint32_t kRinNoise = 1;

/// Counter of a noise draw: the symbol index in the low two words, then
/// the port, then the draw kind above the 24 bits lina::philox_normal_pair
/// keeps for its further attempts.
lina::PhiloxCounter noise_counter(std::uint64_t symbol, std::size_t port,
                                  std::uint32_t kind) {
  return {static_cast<std::uint32_t>(symbol),
          static_cast<std::uint32_t>(symbol >> 32),
          static_cast<std::uint32_t>(port), kind << 24};
}

/// Columns [j0, j0 + W) of row `row` of a complex matrix times a real
/// block: both accumulators start from +0 and sum over k in increasing
/// order, and store(j, re, im) receives each column's sum. For the
/// noiseless tile these are the complex product's operations minus its
/// exact-zero terms, so results stay bit-identical to it; reordering the
/// sum would not. W columns of accumulators stay in registers across the
/// k loop.
template <std::size_t W, class Store>
void real_input_block(const cplx* row, std::size_t ports, const double* x,
                      std::size_t cols, std::size_t j0, Store&& store) {
  double acc_re[W] = {};
  double acc_im[W] = {};
  for (std::size_t k = 0; k < ports; ++k) {
    const double tr = row[k].real();
    const double ti = row[k].imag();
    const double* f = x + k * cols + j0;
    for (std::size_t j = 0; j < W; ++j) {
      acc_re[j] += tr * f[j];
      acc_im[j] += ti * f[j];
    }
  }
  for (std::size_t j = 0; j < W; ++j) store(j0 + j, acc_re[j], acc_im[j]);
}

/// t * x for columns [j0, j1) of a real block x of `cols` columns stored
/// port by port: store(r, j, re, im) receives entry (r, j), in 8-column
/// register blocks and a scalar tail.
template <class Store>
void real_input_product(const CMat& t, const double* x, std::size_t cols,
                        std::size_t j0, std::size_t j1, Store&& store) {
  constexpr std::size_t kBlock = 8;
  const std::size_t n = t.rows();
  for (std::size_t r = 0; r < n; ++r) {
    const cplx* row = t.raw().data() + r * n;
    const auto put = [&](std::size_t j, double re, double im) {
      store(r, j, re, im);
    };
    std::size_t j = j0;
    for (; j + kBlock <= j1; j += kBlock)
      real_input_block<kBlock>(row, n, x, cols, j, put);
    for (; j < j1; ++j) real_input_block<1>(row, n, x, cols, j, put);
  }
}

phot::AdcConfig autoscale_adc(phot::AdcConfig adc, const phot::CwLaserConfig& laser,
                              std::size_t ports) {
  // Map ADC full scale to the per-port launch power: output fields are
  // bounded by the total launch amplitude, and typical entries sit near
  // the per-port level, so this uses the converter range efficiently.
  adc.full_scale_w = laser.power_w / static_cast<double>(ports);
  return adc;
}
}  // namespace

MvmEngine::MvmEngine(MvmConfig cfg)
    : cfg_(std::move(cfg)),
      modulator_(cfg_.modulator),
      receiver_(cfg_.detector, autoscale_adc(cfg_.adc, cfg_.laser, cfg_.ports)),
      laser_(cfg_.laser) {
  if (cfg_.ports < 2) throw std::invalid_argument("MvmEngine: ports < 2");
  phot::check_thermo_optic_config(cfg_.thermo);
  mesh::MeshErrorModel em_u = cfg_.errors;
  mesh::MeshErrorModel em_v = cfg_.errors;
  // Two distinct dies on the same wafer: decorrelate their imperfections.
  em_v.seed = em_u.seed * 0x9e3779b97f4a7c15ULL + 1;
  mesh_u_ = std::make_unique<mesh::PhysicalMesh>(
      mesh::make_layout(cfg_.architecture, cfg_.ports), em_u);
  mesh_v_ = std::make_unique<mesh::PhysicalMesh>(
      mesh::make_layout(cfg_.architecture, cfg_.ports), em_v);
  if (cfg_.weights == WeightTechnology::kPcm) {
    mesh_u_->enable_pcm(cfg_.pcm);
    mesh_v_->enable_pcm(cfg_.pcm);
  }
  launch_ = std::sqrt(cfg_.laser.power_w / static_cast<double>(cfg_.ports));
  attenuation_.assign(cfg_.ports, 1.0);
  set_matrix(CMat::identity(cfg_.ports));  // also ages PCM to the drift time
}

double weight_write_energy_j(const MvmConfig& cfg, double phases) {
  if (cfg.weights == WeightTechnology::kPcm)
    return phases * phot::pcm_write_energy_j(0.5, cfg.pcm.material);
  return phot::thermo_write_energy_j(phases, cfg.thermo);
}

double weight_program_time_s(const MvmConfig& cfg) {
  if (cfg.weights == WeightTechnology::kPcm)
    return phot::pcm_program_time_s(cfg.pcm.material);
  return cfg.thermo.response_time_s;
}

void MvmEngine::account_programming() {
  const std::size_t nph =
      mesh_u_->phase_count() + mesh_v_->phase_count() + cfg_.ports;
  counters_.weight_write_energy_j +=
      weight_write_energy_j(cfg_, static_cast<double>(nph));
  ++counters_.program_ops;
}

void MvmEngine::set_matrix(const CMat& w) {
  if (w.rows() != cfg_.ports || w.cols() != cfg_.ports)
    throw std::invalid_argument("MvmEngine::set_matrix: shape mismatch");

  // Unchanged-weights fast path: the meshes already hold exactly this
  // program (no perturbation/drift since), so rewriting it changes no
  // state — only the write cost is paid, as on hardware.
  if (weights_clean_ && w.raw() == weight_.raw()) {
    account_programming();
    return;
  }

  weight_ = w;

  // A PCM write restarts the drift clock: the cells are programmed and
  // the gain calibrated fresh, and only then do they age to the
  // configured drift time, uncalibrated (see age_pcm_weights).
  const bool pcm = cfg_.weights == WeightTechnology::kPcm;
  if (pcm) {
    mesh_u_->set_drift_time(0.0);
    mesh_v_->set_drift_time(0.0);
  }

  // Programming memo: SVD, mesh programming and the calibrated transfer
  // are pure functions of the weight bytes (per die, per detuning), so a
  // repeat matrix is a copy of the cached result, bit-identical to
  // recomputing it.
  if (ProgramMemo* hit = find_program_memo(w)) {
    svd_ = hit->svd;
    sigma_max_ = hit->sigma_max;
    attenuation_ = hit->attenuation;
    if (sigma_max_ > 0.0) {
      mesh_u_->program(hit->phases_u);
      mesh_v_->program(hit->phases_v);
      t_phys_ = hit->t_phys;
      gain_ = hit->gain;
      fidelity_ = hit->fidelity;
    } else {
      refresh_transfer();  // a zero matrix leaves the meshes as they were
    }
  } else {
    lina::svd(w, svd_, svd_ws_);
    sigma_max_ = svd_.sigma_max();

    for (std::size_t k = 0; k < cfg_.ports; ++k) {
      double t = sigma_max_ > 0.0 ? svd_.sigma[k] / sigma_max_ : 0.0;
      if (pcm) {
        // Attenuator settings are held in PCM too: quantize the amplitude
        // to the same level grid.
        const double levels =
            static_cast<double>((1 << cfg_.pcm.level_bits) - 1);
        t = std::round(t * levels) / levels;
      }
      attenuation_[k] = t;
    }

    mesh::CalibrationOptions opt;
    if (sigma_max_ > 0.0) {
      (void)mesh::program_for_target(cfg_.architecture, *mesh_u_, svd_.u,
                                     cfg_.recalibrate, opt, program_scratch_);
      (void)mesh::program_for_target(cfg_.architecture, *mesh_v_,
                                     svd_.v.adjoint(), cfg_.recalibrate, opt,
                                     program_scratch_);
    }
    refresh_transfer();
    insert_program_memo();
  }

  account_programming();
  weights_clean_ = true;
  if (pcm && cfg_.pcm_drift_time_s != 0.0) age_pcm_weights();
}

MvmEngine::ProgramMemo* MvmEngine::find_program_memo(const CMat& w) {
  const double du = mesh_u_->wavelength_detuning_nm();
  const double dv = mesh_v_->wavelength_detuning_nm();
  for (ProgramMemo& e : program_memo_) {
    if (e.key != w.raw() || e.detuning_u_nm != du || e.detuning_v_nm != dv)
      continue;
    e.last_use = ++program_memo_clock_;
    ++program_memo_stats_.hits;
    return &e;
  }
  ++program_memo_stats_.misses;
  return nullptr;
}

void MvmEngine::insert_program_memo() {
  ProgramMemo e{weight_.raw(), mesh_u_->wavelength_detuning_nm(),
                mesh_v_->wavelength_detuning_nm(), svd_, sigma_max_,
                attenuation_, mesh_u_->phases(), mesh_v_->phases(), t_phys_,
                gain_, fidelity_, /*bytes=*/0,
                /*last_use=*/++program_memo_clock_};
  const auto bytes_of = [](const auto& v) {
    return v.size() * sizeof(v.front());
  };
  e.bytes = sizeof(ProgramMemo) + bytes_of(e.key) + bytes_of(e.svd.u.raw()) +
            bytes_of(e.svd.sigma) + bytes_of(e.svd.v.raw()) +
            bytes_of(e.attenuation) + bytes_of(e.phases_u) +
            bytes_of(e.phases_v) + bytes_of(e.t_phys.raw());

  // Evict least recently used entries (smallest stamp) until the new one
  // fits; swap-and-pop, since the vector's order carries no meaning.
  ProgramMemoStats& st = program_memo_stats_;
  while (!program_memo_.empty() && st.bytes + e.bytes > kProgramMemoBytes) {
    const auto lru = std::min_element(
        program_memo_.begin(), program_memo_.end(),
        [](const ProgramMemo& a, const ProgramMemo& b) {
          return a.last_use < b.last_use;
        });
    st.bytes -= lru->bytes;
    std::iter_swap(lru, program_memo_.end() - 1);
    program_memo_.pop_back();
    ++st.evictions;
  }
  st.bytes += e.bytes;
  program_memo_.push_back(std::move(e));
  st.entries = program_memo_.size();
}

void MvmEngine::compose_path_into(const CMat& tu, const CMat& tv,
                                  CMat& out) const {
  // Attenuator column: one variable MZI splitter per port (2 couplers +
  // 2 phase sections of loss each), setting amplitude sigma_k/sigma_max.
  const double att_loss_amp = phot::loss_db_to_amplitude(
      2.0 * cfg_.errors.coupler_loss_db + 2.0 * cfg_.errors.ps_loss_db);
  scratch_path_ = tu;
  for (std::size_t k = 0; k < cfg_.ports; ++k) {
    const cplx d{attenuation_[k] * att_loss_amp, 0.0};
    for (std::size_t r = 0; r < cfg_.ports; ++r) scratch_path_(r, k) *= d;
  }
  lina::mul_into(out, scratch_path_, tv);
}

void MvmEngine::rebuild_physical_transfer() {
  compose_path_into(mesh_u_->transfer(), mesh_v_->transfer(), t_phys_);
}

void MvmEngine::set_pcm_drift_time(double seconds) {
  cfg_.pcm_drift_time_s = seconds;
  if (cfg_.weights != WeightTechnology::kPcm) return;
  weights_clean_ = false;  // aged state: a rewrite restarts the clock
  age_pcm_weights();
}

void MvmEngine::age_pcm_weights() {
  mesh_u_->set_drift_time(cfg_.pcm_drift_time_s);
  mesh_v_->set_drift_time(cfg_.pcm_drift_time_s);
  rebuild_physical_transfer();  // gain_ deliberately kept from program time
  fidelity_ = sigma_max_ > 0.0 ? CMat::fidelity(weight_, t_phys_) : 1.0;
}

lina::CMat MvmEngine::transfer_at_detuning(double nm) const {
  // Detuning is an explicit evaluation argument: the meshes' own state
  // (detuning, transfer cache) is left untouched, keeping this method
  // logically const instead of mutate-and-restore.
  const CMat tu = mesh_u_->transfer_at(nm);
  const CMat tv = mesh_v_->transfer_at(nm);
  CMat out;
  compose_path_into(tu, tv, out);
  return out;
}

std::size_t MvmEngine::phase_state_size() const {
  return mesh_v_->phase_count() + mesh_u_->phase_count();
}

void MvmEngine::perturb_phase(std::size_t index, double delta_rad) {
  if (index >= phase_state_size())
    throw std::out_of_range("MvmEngine::perturb_phase: index");
  weights_clean_ = false;  // mesh no longer holds the programmed weights
  const bool on_v = index < mesh_v_->phase_count();
  mesh::PhysicalMesh& m = on_v ? *mesh_v_ : *mesh_u_;
  const std::size_t k = on_v ? index : index - mesh_v_->phase_count();
  // A memo hit leaves the mesh's transfer cache to be rebuilt lazily;
  // rebuild it before the upset, so the upset takes the same incremental
  // rank-one update it takes after a freshly computed program.
  (void)m.transfer();
  m.set_phase(k, m.phase(k) + delta_rad);
  rebuild_physical_transfer();
  fidelity_ = sigma_max_ > 0.0 ? CMat::fidelity(weight_, t_phys_) : 1.0;
}

void MvmEngine::refresh_transfer() {
  rebuild_physical_transfer();

  // One-time scalar calibration: T_phys ~= gain * (W / sigma_max).
  if (sigma_max_ > 0.0) {
    const CMat wn = weight_.scaled(cplx{1.0 / sigma_max_, 0.0});
    cplx num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t i = 0; i < wn.raw().size(); ++i) {
      num += std::conj(wn.raw()[i]) * t_phys_.raw()[i];
      den += std::norm(wn.raw()[i]);
    }
    gain_ = den > 0.0 ? num / den : cplx{1.0, 0.0};
    fidelity_ = CMat::fidelity(weight_, t_phys_);
  } else {
    gain_ = cplx{1.0, 0.0};
    fidelity_ = 1.0;
  }
}

cplx MvmEngine::output_scale() const {
  return gain_ * launch_amplitude() * modulator_.amplitude_scale() /
         sigma_max_;
}

CVec MvmEngine::multiply(const CVec& x) {
  const std::size_t n = cfg_.ports;
  if (x.size() != n)
    throw std::invalid_argument("MvmEngine::multiply: shape mismatch");
  std::vector<double> in_phase(n);
  std::vector<double> quadrature(n);
  for (std::size_t k = 0; k < n; ++k) {
    in_phase[k] = arm_field(x[k].real());
    quadrature[k] = arm_field(x[k].imag());
  }
  CMat out(n, 1);
  propagate_batch(t_phys_, in_phase, 1, quadrature, 0, 1, out);
  detect_batch(out, counters_.mvm_ops);
  rescale_batch(out);
  ++counters_.mvm_ops;
  counters_.busy_time_s += symbol_time_s();
  return out.col(0);
}

double MvmEngine::arm_field(double v) const {
  return launch_amplitude() * modulator_.encode(v).real();
}

void MvmEngine::propagate_batch(const CMat& t,
                                const std::vector<double>& in_phase,
                                std::size_t cols,
                                const std::vector<double>& quadrature,
                                std::size_t j0, std::size_t j1,
                                CMat& out) const {
  const std::size_t n = cfg_.ports;
  if (t.rows() != n || t.cols() != n || in_phase.size() != n * cols ||
      quadrature.size() != n || out.rows() != n || out.cols() != cols ||
      j0 > j1 || j1 > cols)
    throw std::invalid_argument("MvmEngine::propagate_batch: shape mismatch");
  // The quadrature arms' image t * quadrature, one field per output port.
  std::vector<double>& q = scratch_quadrature_;
  q.resize(2 * n);
  real_input_product(t, quadrature.data(), 1, 0, 1,
                     [&](std::size_t r, std::size_t, double re, double im) {
                       q[r] = re;
                       q[n + r] = im;
                     });
  // out = t * in_phase + i * (t * quadrature).
  real_input_product(t, in_phase.data(), cols, j0, j1,
                     [&](std::size_t r, std::size_t j, double re, double im) {
                       out(r, j) = cplx{re - q[n + r], im + q[r]};
                     });
}

void MvmEngine::detect_batch(CMat& fields, std::uint64_t first_symbol) const {
  for (std::size_t c = 0; c < fields.cols(); ++c) {
    const std::uint64_t symbol = first_symbol + c;
    const double rin = std::sqrt(launch_power_w(symbol) / cfg_.laser.power_w);
    for (std::size_t p = 0; p < fields.rows(); ++p) {
      const auto n = lina::philox_normal_pair(
          cfg_.noise_seed, noise_counter(symbol, p, kDetectorNoise));
      fields(p, c) = receiver_.measure(fields(p, c) * rin, n[0], n[1]);
    }
  }
}

double MvmEngine::launch_power_w(std::uint64_t symbol) const {
  return laser_.sample_power(lina::philox_normal_pair(
      cfg_.noise_seed, noise_counter(symbol, 0, kRinNoise))[0]);
}

void MvmEngine::rescale_batch(CMat& detected) const {
  // Zero weight matrix: the reference scale sigma_max is 0, the optical
  // path is fully attenuated, and the rescaled output is identically 0
  // (avoids 0 * inf under finite-math complex division).
  if (sigma_max_ <= 0.0) {
    for (auto& v : detected.raw()) v = cplx{0.0, 0.0};
    return;
  }
  const cplx scale = output_scale();
  for (auto& v : detected.raw()) v /= scale;
}

CVec MvmEngine::multiply_noiseless(const CVec& x) const {
  // Device (systematic) errors only: exact encoding, no RIN/shot/ADC.
  const double launch = launch_amplitude();
  CVec fields(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    fields[i] = launch * modulator_.amplitude_scale() * x[i];
  CVec out;
  lina::mul_vec_into(out, t_phys_, fields);
  if (sigma_max_ <= 0.0) {  // zero weights -> zero output; see rescale_batch()
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = cplx{0.0, 0.0};
    return out;
  }
  const cplx scale = output_scale();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = out[i] / scale;
  return out;
}

void MvmEngine::multiply_noiseless_batch_into(const std::vector<double>& x,
                                              std::size_t cols,
                                              std::vector<double>& re,
                                              std::vector<double>& im) const {
  const std::size_t n = cfg_.ports;
  if (x.size() != n * cols)
    throw std::invalid_argument(
        "MvmEngine::multiply_noiseless_batch_into: shape mismatch");
  re.resize(x.size());
  im.resize(x.size());
  if (sigma_max_ <= 0.0) {  // zero weights -> zero output; see rescale_batch()
    std::fill(re.begin(), re.end(), 0.0);
    std::fill(im.begin(), im.end(), 0.0);
    return;
  }
  const double launch = launch_amplitude();
  scratch_fields_.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    scratch_fields_[i] = launch * modulator_.amplitude_scale() * x[i];
  // One reciprocal instead of a division per element (the whole tile
  // shares the scale; agrees with the per-column path to ~1 ulp, well
  // inside the Q3.12 conversion at the SPM boundary).
  const cplx inv_scale = cplx{1.0, 0.0} / output_scale();
  const double ir = inv_scale.real();
  const double ii = inv_scale.imag();
  real_input_product(t_phys_, scratch_fields_.data(), cols, 0, cols,
                     [&](std::size_t r, std::size_t j, double ar, double ai) {
                       re[r * cols + j] = ar * ir - ai * ii;
                       im[r * cols + j] = ar * ii + ai * ir;
                     });
}

MvmEngine::Snapshot MvmEngine::snapshot() const {
  Snapshot s;
  s.mesh_u = mesh_u_->snapshot();
  s.mesh_v = mesh_v_->snapshot();
  s.weight = weight_;
  s.svd = svd_;
  s.attenuation = attenuation_;
  s.sigma_max = sigma_max_;
  s.t_phys = t_phys_;
  s.gain = gain_;
  s.fidelity = fidelity_;
  s.pcm_drift_time_s = cfg_.pcm_drift_time_s;
  s.counters = counters_;
  s.weights_clean = weights_clean_;
  return s;
}

void MvmEngine::restore(const Snapshot& s) {
  // Mesh restore is a no-op (cache kept) when the trial never touched the
  // phases; the composed transfer and calibration are restored by value
  // either way, so nothing is recomputed here.
  mesh_u_->restore(s.mesh_u);
  mesh_v_->restore(s.mesh_v);
  weight_ = s.weight;
  svd_ = s.svd;
  attenuation_ = s.attenuation;
  sigma_max_ = s.sigma_max;
  t_phys_ = s.t_phys;
  gain_ = s.gain;
  fidelity_ = s.fidelity;
  cfg_.pcm_drift_time_s = s.pcm_drift_time_s;
  counters_ = s.counters;
  weights_clean_ = s.weights_clean;
}

double MvmEngine::symbol_time_s() const {
  return std::max(1.0 / cfg_.modulator.rate_hz, 1.0 / cfg_.adc.rate_hz);
}

double MvmEngine::holding_power_w() const {
  if (cfg_.weights == WeightTechnology::kPcm) return 0.0;
  double total = 0.0;
  const auto add_mesh = [&](const mesh::PhysicalMesh& m) {
    for (std::size_t k = 0; k < m.phase_count(); ++k)
      total += phot::heater_power_w(m.phase(k), cfg_.thermo);
  };
  add_mesh(*mesh_u_);
  add_mesh(*mesh_v_);
  for (const double t : attenuation_) {
    const double theta = 2.0 * std::asin(std::min(1.0, std::max(0.0, t)));
    total += phot::heater_power_w(theta, cfg_.thermo);
  }
  return total;
}

double MvmEngine::insertion_loss_db() const {
  const double att_il =
      2.0 * cfg_.errors.coupler_loss_db + 2.0 * cfg_.errors.ps_loss_db;
  return cfg_.modulator.insertion_loss_db + mesh_u_->nominal_insertion_loss_db() +
         mesh_v_->nominal_insertion_loss_db() + att_il;
}

}  // namespace aspen::core
