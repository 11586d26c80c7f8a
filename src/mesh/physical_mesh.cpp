#include "mesh/physical_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "photonics/mzi.hpp"
#include "photonics/units.hpp"

namespace aspen::mesh {

using lina::CMat;
using lina::cplx;

namespace {
/// Rank-one updates accumulate rounding relative to a from-scratch
/// evaluation; refresh the whole cache after this many (amortized cost is
/// negligible, keeps the cached transfer within ~1e-15 of ground truth).
constexpr int kMaxRankUpdates = 128;

/// Bitwise equality: -0.0 and 0.0 may compose differently signed zeros.
bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}
}  // namespace

PhysicalMesh::PhysicalMesh(MeshLayout layout, MeshErrorModel errors)
    : layout_(std::move(layout)), errors_(errors) {
  layout_.validate();
  phases_.assign(layout_.phase_count(), 0.0);
  phase_offset_.assign(layout_.phase_count(), 0.0);
  coupler_delta_.assign(layout_.coupler_count(), 0.0);
  lina::Rng rng(errors_.seed);
  if (errors_.phase_sigma > 0.0)
    for (auto& o : phase_offset_) o = rng.gaussian(0.0, errors_.phase_sigma);
  if (errors_.coupler_sigma > 0.0)
    for (auto& d : coupler_delta_) d = rng.gaussian(0.0, errors_.coupler_sigma);

  // Static layout indexing: owning column per phase slot and the first
  // phase / coupler index of every column (build_column starts there).
  phase_col_.assign(phases_.size(), 0);
  col_phase0_.assign(layout_.columns.size(), 0);
  col_coup0_.assign(layout_.columns.size(), 0);
  std::size_t phase_i = 0;
  std::size_t coup_i = 0;
  for (std::size_t c = 0; c < layout_.columns.size(); ++c) {
    col_phase0_[c] = phase_i;
    col_coup0_[c] = coup_i;
    const auto& column = layout_.columns[c];
    if (std::holds_alternative<MziColumn>(column)) {
      const std::size_t ncells = std::get<MziColumn>(column).top_ports.size();
      for (std::size_t k = 0; k < 2 * ncells; ++k) phase_col_[phase_i + k] = c;
      phase_i += 2 * ncells;
      coup_i += 2 * ncells;
    } else if (std::holds_alternative<PhaseColumn>(column)) {
      for (std::size_t k = 0; k < layout_.ports; ++k)
        phase_col_[phase_i + k] = c;
      phase_i += layout_.ports;
    } else {
      coup_i += std::get<CouplerColumn>(column).top_ports.size();
    }
  }
}

void PhysicalMesh::program(const std::vector<double>& phases) {
  if (phases.size() != phases_.size())
    throw std::invalid_argument("PhysicalMesh::program: phase count mismatch");
  phases_ = phases;
  invalidate_cache();
}

void PhysicalMesh::set_phase(std::size_t i, double v) {
  phases_.at(i) = v;
  if (!cache_ready_) return;
  const std::size_t c = phase_col_[i];
  if (dirty_col_ >= 0 && static_cast<std::size_t>(dirty_col_) != c) {
    // Two distinct columns stale: fall back to a full rebuild next time.
    invalidate_cache();
    return;
  }
  dirty_col_ = static_cast<std::ptrdiff_t>(c);
  // Prefixes past c and suffixes before c now contain a stale column.
  prefix_valid_ = std::min(prefix_valid_, c);
  suffix_valid_ = std::max(suffix_valid_, c);
}

void PhysicalMesh::enable_pcm(const phot::PcmCellConfig& cfg) {
  pcm_.emplace(cfg);
  pcm_cfg_ = cfg;
  invalidate_cache();
  rebuilt_.valid = false;
}

void PhysicalMesh::disable_pcm() {
  pcm_.reset();
  pcm_cfg_.reset();
  invalidate_cache();
  rebuilt_.valid = false;
}

void PhysicalMesh::set_drift_time(double seconds) {
  if (seconds == drift_time_s_) return;
  drift_time_s_ = seconds;
  if (pcm_.has_value()) invalidate_cache();
}

void PhysicalMesh::set_wavelength_detuning_nm(double nm) {
  if (nm == detuning_nm_) return;
  detuning_nm_ = nm;
  invalidate_cache();
}

void PhysicalMesh::invalidate_cache() const {
  cache_ready_ = false;
  dirty_col_ = -1;
}

void PhysicalMesh::restore(const Snapshot& s) {
  if (s.phases.size() != phases_.size())
    throw std::invalid_argument("PhysicalMesh::restore: phase count mismatch");
  // Untouched mesh (the common fault-campaign trial): keep the column
  // cache — restore is then free.
  if (phases_ == s.phases && drift_time_s_ == s.drift_time_s &&
      detuning_nm_ == s.detuning_nm)
    return;
  phases_ = s.phases;
  drift_time_s_ = s.drift_time_s;
  detuning_nm_ = s.detuning_nm;
  invalidate_cache();
}

void PhysicalMesh::build_column(std::size_t ci, bool with_errors,
                                double detuning_nm, ColumnMatrix& out) const {
  const std::size_t n = layout_.ports;
  const bool use_pcm = with_errors && pcm_.has_value();
  const bool use_xtalk =
      with_errors && !use_pcm && errors_.thermal_crosstalk > 0.0;
  const double routing_amp =
      with_errors
          ? phot::loss_db_to_amplitude(errors_.routing_loss_db_per_column)
          : 1.0;
  // DWDM carrier detuning rotates every coupler systematically.
  const double disp_delta =
      with_errors ? detuning_nm * errors_.coupler_dispersion_rad_per_nm : 0.0;

  out.blocks.clear();
  out.diag.assign(n, cplx{routing_amp, 0.0});
  out.covered.assign(n, 0);

  const auto& column = layout_.columns[ci];
  std::size_t phase_i = col_phase0_[ci];
  const std::size_t coup_i = col_coup0_[ci];

  if (std::holds_alternative<MziColumn>(column)) {
    const auto& tops = std::get<MziColumn>(column).top_ports;
    const std::size_t ncells = tops.size();
    // Programmed phases of this column (for thermal crosstalk).
    scratch_th_.assign(ncells, 0.0);
    scratch_ph_.assign(ncells, 0.0);
    for (std::size_t c = 0; c < ncells; ++c) {
      scratch_th_[c] = phases_[phase_i + 2 * c];
      scratch_ph_[c] = phases_[phase_i + 2 * c + 1];
    }
    for (std::size_t c = 0; c < ncells; ++c) {
      double theta = scratch_th_[c];
      double phi = scratch_ph_[c];
      if (use_xtalk) {
        // Heaters leak into vertically adjacent cells of the column.
        const double xt = errors_.thermal_crosstalk;
        if (c > 0) {
          theta += xt * scratch_th_[c - 1];
          phi += xt * scratch_ph_[c - 1];
        }
        if (c + 1 < ncells) {
          theta += xt * scratch_th_[c + 1];
          phi += xt * scratch_ph_[c + 1];
        }
      }
      phot::MziImperfections imp;
      if (with_errors) {
        imp.coupler1_delta_eta = coupler_delta_[coup_i + 2 * c] + disp_delta;
        imp.coupler2_delta_eta =
            coupler_delta_[coup_i + 2 * c + 1] + disp_delta;
        imp.theta_error = phase_offset_[phase_i + 2 * c];
        imp.phi_error = phase_offset_[phase_i + 2 * c + 1];
        imp.coupler_loss_db = errors_.coupler_loss_db;
        imp.ps_loss_db = errors_.ps_loss_db;
      } else {
        imp.coupler_loss_db = 0.0;
        imp.ps_loss_db = 0.0;
      }
      if (use_pcm) {
        const auto qt = pcm_->quantize(theta, drift_time_s_);
        const auto qp = pcm_->quantize(phi, drift_time_s_);
        theta = qt.phase;
        phi = qp.phase;
        imp.theta_arm_amplitude = qt.amplitude;
        imp.phi_arm_amplitude = qp.amplitude;
      }
      const phot::Transfer2 t =
          phot::mzi_physical(theta, phi, imp, layout_.style);
      const auto port = static_cast<std::size_t>(tops[c]);
      out.blocks.push_back({port, t.a * routing_amp, t.b * routing_amp,
                            t.c * routing_amp, t.d * routing_amp});
      out.covered[port] = 1;
      out.covered[port + 1] = 1;
    }
    if (with_errors && errors_.balanced_dummies) {
      // Matched-dummy attenuation for ports this column does not cover.
      const double dummy_amp = phot::loss_db_to_amplitude(
          2.0 * errors_.coupler_loss_db + 2.0 * errors_.ps_loss_db);
      for (std::size_t p = 0; p < n; ++p)
        if (!out.covered[p]) out.diag[p] *= dummy_amp;
    }
  } else if (std::holds_alternative<PhaseColumn>(column)) {
    const double ps_amp =
        with_errors ? phot::loss_db_to_amplitude(errors_.ps_loss_db) : 1.0;
    for (std::size_t p = 0; p < n; ++p) {
      double phi = phases_[phase_i];
      double amp = ps_amp;
      if (use_pcm) {
        const auto q = pcm_->quantize(phi, drift_time_s_);
        phi = q.phase;
        amp *= q.amplitude;
      }
      if (with_errors) phi += phase_offset_[phase_i];
      out.diag[p] = std::polar(amp, phi) * routing_amp;
      ++phase_i;
    }
  } else {
    const auto& tops = std::get<CouplerColumn>(column).top_ports;
    std::size_t ci2 = coup_i;
    for (const int t : tops) {
      phot::DirectionalCoupler dc;
      dc.delta_eta = with_errors ? coupler_delta_[ci2] + disp_delta : 0.0;
      dc.insertion_loss_db = with_errors ? errors_.coupler_loss_db : 0.0;
      const phot::Transfer2 tr = dc.transfer();
      const auto port = static_cast<std::size_t>(t);
      out.blocks.push_back({port, tr.a * routing_amp, tr.b * routing_amp,
                            tr.c * routing_amp, tr.d * routing_amp});
      out.covered[port] = 1;
      out.covered[port + 1] = 1;
      ++ci2;
    }
    if (with_errors && errors_.balanced_dummies) {
      const double dummy_amp =
          phot::loss_db_to_amplitude(errors_.coupler_loss_db);
      for (std::size_t p = 0; p < n; ++p)
        if (!out.covered[p]) out.diag[p] *= dummy_amp;
    }
  }
}

void PhysicalMesh::column_apply_left(const ColumnMatrix& cm, CMat& m) {
  const std::size_t ncols = m.cols();
  cplx* data = m.raw().data();
  for (const auto& b : cm.blocks) {
    cplx* ri = &data[b.top * ncols];
    cplx* rj = &data[(b.top + 1) * ncols];
    for (std::size_t col = 0; col < ncols; ++col) {
      const cplx mi = ri[col];
      const cplx mj = rj[col];
      ri[col] = b.a * mi + b.b * mj;
      rj[col] = b.c * mi + b.d * mj;
    }
  }
  for (std::size_t p = 0; p < cm.covered.size(); ++p) {
    if (cm.covered[p]) continue;
    const cplx f = cm.diag[p];
    if (f == cplx{1.0, 0.0}) continue;
    cplx* rp = &data[p * ncols];
    for (std::size_t col = 0; col < ncols; ++col) rp[col] *= f;
  }
}

void PhysicalMesh::column_apply_right(CMat& m, const ColumnMatrix& cm) {
  const std::size_t nrows = m.rows();
  const std::size_t ncols = m.cols();
  cplx* data = m.raw().data();
  for (const auto& b : cm.blocks) {
    for (std::size_t r = 0; r < nrows; ++r) {
      cplx* row = &data[r * ncols];
      const cplx mi = row[b.top];
      const cplx mj = row[b.top + 1];
      row[b.top] = mi * b.a + mj * b.c;
      row[b.top + 1] = mi * b.b + mj * b.d;
    }
  }
  for (std::size_t p = 0; p < cm.covered.size(); ++p) {
    if (cm.covered[p]) continue;
    const cplx f = cm.diag[p];
    if (f == cplx{1.0, 0.0}) continue;
    for (std::size_t r = 0; r < nrows; ++r) data[r * ncols + p] *= f;
  }
}

CMat PhysicalMesh::evaluate(bool with_errors, double detuning_nm) const {
  CMat m = CMat::identity(layout_.ports);
  for (std::size_t c = 0; c < layout_.columns.size(); ++c) {
    build_column(c, with_errors, detuning_nm, scratch_col_);
    column_apply_left(scratch_col_, m);
  }
  return m;
}

void PhysicalMesh::rebuild_cache() const {
  const std::size_t n = layout_.ports;
  const std::size_t k = layout_.columns.size();
  if (k == 0) {
    t_cache_ = CMat::identity(n);
    cache_ready_ = true;
    dirty_col_ = -1;
    rank_updates_ = 0;
    return;
  }
  prefix_.resize(k);
  suffix_.resize(k);
  if (rebuilt_.valid &&
      same_bits(rebuilt_.phases.data(), phases_.data(), phases_.size()) &&
      same_bits(&rebuilt_.drift_time_s, &drift_time_s_, 1) &&
      same_bits(&rebuilt_.detuning_nm, &detuning_nm_, 1)) {
    // Revert the replaced columns. prefix_[c] holds columns below c and
    // suffix_[c] those above it, so both stay valid up to the nearest
    // reverted column on their side.
    for (std::size_t c = 0; c < k; ++c) {
      if (!replaced_[c]) continue;
      cols_[c] = rebuilt_.cols[c];
      replaced_[c] = 0;
      prefix_valid_ = std::min(prefix_valid_, c);
      suffix_valid_ = std::max(suffix_valid_, c);
    }
    t_cache_ = rebuilt_.transfer;
    cache_ready_ = true;
    dirty_col_ = -1;
    rank_updates_ = 0;
    return;
  }
  cols_.resize(k);
  for (std::size_t c = 0; c < k; ++c)
    build_column(c, true, detuning_nm_, cols_[c]);
  // T is composed in one accumulator — a rebuild costs exactly what the
  // from-scratch evaluation does. Prefixes and suffixes start at their
  // identity anchors and are extended lazily by the incremental path,
  // so pure-evaluation workloads (drift/detuning sweeps that never call
  // set_phase) neither compute nor store the product chains.
  t_cache_.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) t_cache_(i, i) = cplx{1.0, 0.0};
  for (std::size_t c = 0; c < k; ++c) column_apply_left(cols_[c], t_cache_);
  rebuilt_.valid = true;
  rebuilt_.phases = phases_;
  rebuilt_.drift_time_s = drift_time_s_;
  rebuilt_.detuning_nm = detuning_nm_;
  rebuilt_.cols = cols_;
  rebuilt_.transfer = t_cache_;
  replaced_.assign(k, 0);
  prefix_[0].resize(n, n);
  for (std::size_t i = 0; i < n; ++i) prefix_[0](i, i) = cplx{1.0, 0.0};
  prefix_valid_ = 0;
  suffix_[k - 1].resize(n, n);
  for (std::size_t i = 0; i < n; ++i) suffix_[k - 1](i, i) = cplx{1.0, 0.0};
  suffix_valid_ = k - 1;
  cache_ready_ = true;
  dirty_col_ = -1;
  rank_updates_ = 0;
}

bool PhysicalMesh::try_incremental_update() const {
  if (rank_updates_ >= kMaxRankUpdates) return false;
  const auto c = static_cast<std::size_t>(dirty_col_);
  // Extend the cached prefix/suffix products to bracket column c. Only
  // clean columns are touched; O(N^2) per step, paid once per column
  // transition of a calibration sweep.
  while (prefix_valid_ < c) {
    prefix_[prefix_valid_ + 1] = prefix_[prefix_valid_];
    column_apply_left(cols_[prefix_valid_], prefix_[prefix_valid_ + 1]);
    ++prefix_valid_;
  }
  while (suffix_valid_ > c) {
    suffix_[suffix_valid_ - 1] = suffix_[suffix_valid_];
    column_apply_right(suffix_[suffix_valid_ - 1], cols_[suffix_valid_]);
    --suffix_valid_;
  }
  build_column(c, true, detuning_nm_, scratch_col_);

  // T += L_c (C_c' - C_c) R_c, contracted entry-by-entry: the column
  // difference has O(1) nonzeros (one MZI cell, or three with thermal
  // crosstalk), each a rank-one update costing O(N^2).
  const CMat& lc = suffix_[c];
  const CMat& rc = prefix_[c];
  const std::size_t n = layout_.ports;
  const auto add_entry = [&](std::size_t i, std::size_t j, cplx delta) {
    if (delta == cplx{0.0, 0.0}) return;
    const cplx* rrow = &rc.raw()[j * n];
    for (std::size_t r = 0; r < n; ++r) {
      const cplx lri = lc(r, i) * delta;
      if (lri == cplx{0.0, 0.0}) continue;
      cplx* trow = &t_cache_.raw()[r * n];
      for (std::size_t s = 0; s < n; ++s) trow[s] += lri * rrow[s];
    }
  };
  const ColumnMatrix& oldc = cols_[c];
  const ColumnMatrix& newc = scratch_col_;
  for (std::size_t b = 0; b < newc.blocks.size(); ++b) {
    const auto& nb = newc.blocks[b];
    const auto& ob = oldc.blocks[b];
    add_entry(nb.top, nb.top, nb.a - ob.a);
    add_entry(nb.top, nb.top + 1, nb.b - ob.b);
    add_entry(nb.top + 1, nb.top, nb.c - ob.c);
    add_entry(nb.top + 1, nb.top + 1, nb.d - ob.d);
  }
  for (std::size_t p = 0; p < n; ++p) {
    if (newc.covered[p]) continue;
    add_entry(p, p, newc.diag[p] - oldc.diag[p]);
  }
  std::swap(cols_[c], scratch_col_);
  replaced_[c] = 1;
  dirty_col_ = -1;
  ++rank_updates_;
  return true;
}

const CMat& PhysicalMesh::transfer() const {
  if (cache_ready_) {
    if (dirty_col_ < 0) return t_cache_;
    if (try_incremental_update()) return t_cache_;
  }
  rebuild_cache();
  return t_cache_;
}

CMat PhysicalMesh::transfer_uncached() const {
  return evaluate(true, detuning_nm_);
}

CMat PhysicalMesh::transfer_at(double detuning_nm) const {
  return evaluate(true, detuning_nm);
}

CMat PhysicalMesh::ideal_transfer() const {
  return evaluate(false, detuning_nm_);
}

double PhysicalMesh::nominal_insertion_loss_db() const {
  double total = 0.0;
  for (const auto& column : layout_.columns) {
    total += errors_.routing_loss_db_per_column;
    if (std::holds_alternative<MziColumn>(column))
      total += 2.0 * errors_.coupler_loss_db + 2.0 * errors_.ps_loss_db;
    else if (std::holds_alternative<PhaseColumn>(column))
      total += errors_.ps_loss_db;
    else
      total += errors_.coupler_loss_db;
  }
  return total;
}

CMat PhysicalMesh::ideal_of(const MeshLayout& layout,
                            const std::vector<double>& phases) {
  PhysicalMesh mesh(layout, MeshErrorModel{});
  mesh.program(phases);
  return mesh.ideal_transfer();
}

}  // namespace aspen::mesh
