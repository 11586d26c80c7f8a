#include "photonics/coupler.hpp"

#include <algorithm>
#include <cmath>

namespace aspen::phot {

Transfer2 Transfer2::phases(double top, double bottom) {
  Transfer2 t;
  t.a = std::polar(1.0, top);
  t.d = std::polar(1.0, bottom);
  t.b = t.c = cplx{0.0, 0.0};
  return t;
}

Transfer2 Transfer2::operator*(const Transfer2& rhs) const {
  Transfer2 o;
  o.a = a * rhs.a + b * rhs.c;
  o.b = a * rhs.b + b * rhs.d;
  o.c = c * rhs.a + d * rhs.c;
  o.d = c * rhs.b + d * rhs.d;
  return o;
}

Transfer2 Transfer2::scaled(cplx s) const {
  Transfer2 o;
  o.a = a * s;
  o.b = b * s;
  o.c = c * s;
  o.d = d * s;
  return o;
}

double Transfer2::max_abs_diff(const Transfer2& rhs) const {
  return std::max({std::abs(a - rhs.a), std::abs(b - rhs.b),
                   std::abs(c - rhs.c), std::abs(d - rhs.d)});
}

bool Transfer2::is_unitary(double tol) const {
  // Rows of T T^dagger.
  const cplx r00 = a * std::conj(a) + b * std::conj(b);
  const cplx r01 = a * std::conj(c) + b * std::conj(d);
  const cplx r11 = c * std::conj(c) + d * std::conj(d);
  return std::abs(r00 - 1.0) < tol && std::abs(r11 - 1.0) < tol &&
         std::abs(r01) < tol;
}

Transfer2 DirectionalCoupler::transfer() const {
  const double eta = kPi / 4.0 + delta_eta;
  const double t = std::cos(eta);
  const double k = std::sin(eta);
  Transfer2 m;
  m.a = cplx{t, 0.0};
  m.b = cplx{0.0, k};
  m.c = cplx{0.0, k};
  m.d = cplx{t, 0.0};
  if (insertion_loss_db > 0.0)
    m = m.scaled(cplx{loss_db_to_amplitude(insertion_loss_db), 0.0});
  return m;
}

double DirectionalCoupler::cross_coupling() const {
  const double s = std::sin(kPi / 4.0 + delta_eta);
  return s * s;
}

}  // namespace aspen::phot
