#include "mesh/decompose.hpp"

#include <cmath>
#include <stdexcept>

#include "mesh/physical_mesh.hpp"
#include "photonics/mzi.hpp"
#include "photonics/units.hpp"

namespace aspen::mesh {

using lina::CMat;
using lina::cplx;
using Op = DecomposeScratch::Op;
using phot::kPi;
using phot::wrap_phase;

namespace {

/// Packs ops (encounter order) into columns and emits the flat phase
/// vector matching the layout's phase-ordering convention. The layout
/// and the op-to-slot packing depend only on (ports, style, name) — they
/// are kept from the previous call when they already match, so repeat
/// decompositions of same-shape targets only rewrite phases.
///
/// For symmetric (Bell-Walmsley / parallel-PS) cells the per-cell
/// common-mode phase e^{-i(theta+phi)/2} is a *local* two-port screen, not
/// a global factor, so the standard-cell phases are rewritten by pushing a
/// diagonal phase debt Xi through the mesh:
///   T_sym(theta, phi') Xi_in = e^{i mu} T_std(theta, phi) on the cell's
///   ports, with phi' = phi - xi_m + xi_{m+1},
///   mu = xi_{m+1} - (theta + phi') / 2, and xi_m = xi_{m+1} = mu after
///   the cell. The residual debt folds into the output phase screen.
void assemble(std::size_t n, phot::MziStyle style, DecomposeScratch& ws,
              std::vector<Op>& ops, std::vector<double>& out_phases,
              const std::string& name, ProgrammedMesh& pm) {
  if (style == phot::MziStyle::kSymmetric) {
    ws.xi.assign(n, 0.0);
    std::vector<double>& xi = ws.xi;
    for (auto& op : ops) {
      const auto m = static_cast<std::size_t>(op.top);
      // T_sym is 4*pi-periodic in (theta, phi) — wrapping a phase by 2*pi
      // flips the cell's sign — so mu must be computed from the *wrapped*
      // phases that the hardware will actually be programmed with.
      const double theta_w = wrap_phase(op.theta);
      const double phi_w = wrap_phase(op.phi - xi[m] + xi[m + 1]);
      const double mu = xi[m + 1] - (theta_w + phi_w) / 2.0;
      op.theta = theta_w;
      op.phi = phi_w;
      xi[m] = mu;
      xi[m + 1] = mu;
    }
    for (std::size_t p = 0; p < n; ++p) out_phases[p] -= xi[p];
  }

  const bool reusable = pm.layout.ports == n && pm.layout.style == style &&
                        pm.layout.name == name && ws.cached_name == name &&
                        ws.cached_style == style &&
                        ws.cell_cols.size() == ops.size();
  if (!reusable) {
    ColumnPacker packer;
    for (const auto& op : ops) packer.add_cell(op.top, n);
    std::vector<MziColumn> cols = packer.columns();

    pm.layout = MeshLayout{};
    pm.layout.ports = n;
    pm.layout.style = style;
    pm.layout.name = name;
    for (auto& c : cols) pm.layout.columns.emplace_back(std::move(c));
    pm.layout.columns.emplace_back(PhaseColumn{});
    pm.layout.validate();

    // Phase-slot base offset of every column.
    ws.base.assign(pm.layout.columns.size(), 0);
    std::size_t acc = 0;
    for (std::size_t c = 0; c < pm.layout.columns.size(); ++c) {
      ws.base[c] = acc;
      if (std::holds_alternative<MziColumn>(pm.layout.columns[c]))
        acc += 2 * std::get<MziColumn>(pm.layout.columns[c]).top_ports.size();
      else if (std::holds_alternative<PhaseColumn>(pm.layout.columns[c]))
        acc += n;
    }
    ws.phase_total = acc;
    ws.cell_cols = packer.cell_columns();
    ws.cached_name = name;
    ws.cached_style = style;
  }
  pm.phases.assign(ws.phase_total, 0.0);

  // Scatter op phases to their slots.
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const std::size_t col = ws.cell_cols[k];
    const auto& tops = std::get<MziColumn>(pm.layout.columns[col]).top_ports;
    std::size_t slot = 0;
    while (tops[slot] != ops[k].top) ++slot;
    pm.phases[ws.base[col] + 2 * slot] = wrap_phase(ops[k].theta);
    pm.phases[ws.base[col] + 2 * slot + 1] = wrap_phase(ops[k].phi);
  }
  // Output phase screen.
  const std::size_t out_base = ws.base.back();
  for (std::size_t i = 0; i < n; ++i)
    pm.phases[out_base + i] = wrap_phase(out_phases[i]);
}

void require_unitary(const CMat& u, const char* who) {
  if (u.rows() != u.cols())
    throw std::invalid_argument(std::string(who) + ": matrix not square");
  if (!u.is_unitary(1e-8))
    throw std::invalid_argument(std::string(who) + ": matrix not unitary");
}

}  // namespace

void clements_decompose(const CMat& u_in, phot::MziStyle style,
                        DecomposeScratch& ws, ProgrammedMesh& out) {
  require_unitary(u_in, "clements_decompose");
  const std::size_t n = u_in.rows();
  CMat& u = ws.u;
  u = u_in;

  std::vector<Op>& right_ops = ws.right_ops;  // recorded as U <- U * T^{-1}
  std::vector<Op>& left_ops = ws.left_ops;    // recorded as U <- T * U
  right_ops.clear();
  left_ops.clear();

  for (std::size_t i = 1; i <= n - 1; ++i) {
    if (i % 2 == 1) {
      // Null anti-diagonal elements from the right: element (0-based)
      // (n-1-j, i-1-j), cell on column pair (i-1-j, i-j).
      for (std::size_t j = 0; j < i; ++j) {
        const std::size_t r = n - 1 - j;
        const std::size_t m = i - 1 - j;  // left column of the pair
        const cplx a = u(r, m);
        const cplx b = u(r, m + 1);
        double theta, phi;
        if (std::abs(a) < 1e-300 && std::abs(b) < 1e-300) {
          theta = 0.0;
          phi = 0.0;
        } else {
          theta = 2.0 * std::atan2(std::abs(b), std::abs(a));
          phi = (std::abs(a) < 1e-300 || std::abs(b) < 1e-300)
                    ? 0.0
                    : std::arg(a) - std::arg(b) - kPi;
        }
        // U <- U * T^{-1}(theta, phi) on columns (m, m+1) with
        // T^{-1} = -i e^{-i theta/2} [[e^{-i phi} s, e^{-i phi} c],
        //                             [          c,          -s]].
        const double s = std::sin(theta / 2.0);
        const double c = std::cos(theta / 2.0);
        const cplx g = cplx{0.0, -1.0} * std::polar(1.0, -theta / 2.0);
        const cplx emphi = std::polar(1.0, -phi);
        lina::apply_two_mode_right(u, m, m + 1, g * emphi * s, g * emphi * c,
                                   g * c, g * (-s));
        right_ops.push_back({static_cast<int>(m), theta, phi});
      }
    } else {
      // Null from the left: element (0-based) (n+j-i-1, j-1), cell on row
      // pair (n+j-i-2, n+j-i-1).
      for (std::size_t j = 1; j <= i; ++j) {
        const std::size_t r = n + j - i - 1;  // bottom row of the pair
        const std::size_t col = j - 1;
        const auto sol = phot::null_port(u(r - 1, col), u(r, col), 1);
        const phot::Transfer2 t = phot::mzi_ideal(sol.theta, sol.phi);
        lina::apply_two_mode_left(u, r - 1, r, t.a, t.b, t.c, t.d);
        left_ops.push_back({static_cast<int>(r - 1), sol.theta, sol.phi});
      }
    }
  }

  // u is now diagonal: D = L U R  =>  U = L^{-1} D R^{-1-reversed}; commute
  // every inverse left cell through the diagonal:
  //   T^{-1}(theta, phi) D = D' T(theta, phi'),
  //   phi' = arg(d_m / d_{m+1}),
  //   D'_m = -e^{-i(theta+phi)} d_{m+1},  D'_{m+1} = -e^{-i theta} d_{m+1}.
  std::vector<cplx>& d = ws.d;
  d.resize(n);
  for (std::size_t k = 0; k < n; ++k) d[k] = u(k, k);

  // Signal-encounter order: right ops in recording order, then the
  // commuted left ops (last-recorded first).
  std::vector<Op>& ordered = ws.ordered;
  ordered = right_ops;
  ordered.reserve(right_ops.size() + left_ops.size());
  for (std::size_t k = left_ops.size(); k-- > 0;) {
    const Op& op = left_ops[k];
    const auto m = static_cast<std::size_t>(op.top);
    const double phi_new = std::arg(d[m] / d[m + 1]);
    const cplx d2 = d[m + 1];
    d[m] = -std::polar(1.0, -(op.theta + op.phi)) * d2;
    d[m + 1] = -std::polar(1.0, -op.theta) * d2;
    ordered.push_back({op.top, op.theta, phi_new});
  }

  std::vector<double>& out_phases = ws.out_phases;
  out_phases.resize(n);
  for (std::size_t k = 0; k < n; ++k) out_phases[k] = std::arg(d[k]);

  assemble(n, style, ws, ordered, out_phases, "clements-" + std::to_string(n),
           out);
}

void reck_decompose(const CMat& u_in, phot::MziStyle style,
                    DecomposeScratch& ws, ProgrammedMesh& out) {
  require_unitary(u_in, "reck_decompose");
  const std::size_t n = u_in.rows();
  CMat& u = ws.u;
  u = u_in;

  std::vector<Op>& ops = ws.ordered;
  ops.clear();
  for (std::size_t row = n - 1; row >= 1; --row) {
    for (std::size_t m = 0; m < row; ++m) {
      const cplx a = u(row, m);
      const cplx b = u(row, m + 1);
      double theta, phi;
      if (std::abs(a) < 1e-300 && std::abs(b) < 1e-300) {
        theta = 0.0;
        phi = 0.0;
      } else {
        theta = 2.0 * std::atan2(std::abs(b), std::abs(a));
        phi = (std::abs(a) < 1e-300 || std::abs(b) < 1e-300)
                  ? 0.0
                  : std::arg(a) - std::arg(b) - kPi;
      }
      const double s = std::sin(theta / 2.0);
      const double c = std::cos(theta / 2.0);
      const cplx g = cplx{0.0, -1.0} * std::polar(1.0, -theta / 2.0);
      const cplx emphi = std::polar(1.0, -phi);
      lina::apply_two_mode_right(u, m, m + 1, g * emphi * s, g * emphi * c,
                                 g * c, g * (-s));
      ops.push_back({static_cast<int>(m), theta, phi});
    }
    if (row == 1) break;
  }

  std::vector<double>& out_phases = ws.out_phases;
  out_phases.resize(n);
  for (std::size_t k = 0; k < n; ++k) out_phases[k] = std::arg(u(k, k));

  assemble(n, style, ws, ops, out_phases, "reck-" + std::to_string(n), out);
}

ProgrammedMesh clements_decompose(const CMat& u_in, phot::MziStyle style) {
  DecomposeScratch ws;
  ProgrammedMesh pm;
  clements_decompose(u_in, style, ws, pm);
  return pm;
}

lina::CMat ideal_transfer(const ProgrammedMesh& pm) {
  return PhysicalMesh::ideal_of(pm.layout, pm.phases);
}

}  // namespace aspen::mesh
