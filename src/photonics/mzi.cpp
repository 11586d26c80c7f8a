#include "photonics/mzi.hpp"

#include <cmath>

#include "photonics/units.hpp"

namespace aspen::phot {

Transfer2 mzi_ideal(double theta, double phi, MziStyle style) {
  const double s = std::sin(theta / 2.0);
  const double c = std::cos(theta / 2.0);
  const cplx g = cplx{0.0, 1.0} * std::polar(1.0, theta / 2.0);
  const cplx ephi = std::polar(1.0, phi);
  Transfer2 t;
  t.a = g * ephi * s;
  t.b = g * c;
  t.c = g * ephi * c;
  t.d = g * (-s);
  if (style == MziStyle::kSymmetric) {
    // Differential drive shifts only the global phase of the cell:
    // diag(e^{ix/2}, e^{-ix/2}) = e^{-ix/2} diag(e^{ix}, 1).
    t = t.scaled(std::polar(1.0, -(theta + phi) / 2.0));
  }
  return t;
}

Transfer2 mzi_physical(double theta, double phi, const MziImperfections& imp,
                       MziStyle style) {
  DirectionalCoupler c1;
  c1.delta_eta = imp.coupler1_delta_eta;
  c1.insertion_loss_db = imp.coupler_loss_db;
  DirectionalCoupler c2;
  c2.delta_eta = imp.coupler2_delta_eta;
  c2.insertion_loss_db = imp.coupler_loss_db;

  const double ps_amp = loss_db_to_amplitude(imp.ps_loss_db);
  const double th = theta + imp.theta_error;
  const double ph = phi + imp.phi_error;

  Transfer2 internal;
  Transfer2 external;
  if (style == MziStyle::kStandard) {
    // Single-arm drive: the phase (and any state-dependent PCM loss) sits
    // on the top arm only; the bottom arm sees just the section loss.
    internal = Transfer2::phases(th, 0.0);
    internal.a *= imp.theta_arm_amplitude;
    external = Transfer2::phases(ph, 0.0);
    external.a *= imp.phi_arm_amplitude;
  } else {
    // Parallel PS blocks: +-x/2 on the two arms. Both arms carry a phase
    // shifter, so the state-dependent loss is *balanced* — it costs
    // optical power but preserves the interference contrast, which is the
    // physical origin of this cell's robustness.
    internal = Transfer2::phases(th / 2.0, -th / 2.0);
    internal.a *= imp.theta_arm_amplitude;
    internal.d *= imp.theta_arm_amplitude;
    external = Transfer2::phases(ph / 2.0, -ph / 2.0);
    external.a *= imp.phi_arm_amplitude;
    external.d *= imp.phi_arm_amplitude;
  }
  internal = internal.scaled(ps_amp);
  external = external.scaled(ps_amp);

  return c2.transfer() * internal * c1.transfer() * external;
}

NullingSolution null_port(cplx u, cplx v, int port) {
  NullingSolution sol{0.0, 0.0};
  const double au = std::abs(u);
  const double av = std::abs(v);
  if (port == 1) {
    // Zero the bottom output: e^{i phi} cos(theta/2) u = sin(theta/2) v.
    sol.theta = 2.0 * std::atan2(au, av);
    sol.phi = (au < 1e-300 || av < 1e-300) ? 0.0 : std::arg(v) - std::arg(u);
  } else {
    // Zero the top output: e^{i phi} sin(theta/2) u = -cos(theta/2) v.
    sol.theta = 2.0 * std::atan2(av, au);
    sol.phi =
        (au < 1e-300 || av < 1e-300) ? 0.0 : std::arg(v) + kPi - std::arg(u);
  }
  return sol;
}

}  // namespace aspen::phot
