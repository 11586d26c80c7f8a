// Unit tests for the photonic device substrate (S2): materials, PCM cells,
// phase-shifter laws, couplers, MZIs, modulators, detectors, lasers,
// budgets.
#include <gtest/gtest.h>

#include <cmath>

#include "lina/complex_matrix.hpp"
#include "lina/random.hpp"
#include "photonics/coupler.hpp"
#include "photonics/laser.hpp"
#include "photonics/link_budget.hpp"
#include "photonics/material.hpp"
#include "photonics/modulator.hpp"
#include "photonics/mzi.hpp"
#include "photonics/pcm_cell.hpp"
#include "photonics/phase_shifter.hpp"
#include "photonics/photodetector.hpp"
#include "lina/stats.hpp"
#include "photonics/units.hpp"

namespace {

using namespace aspen::phot;
using aspen::lina::Rng;

TEST(UnitsTest, DbmRoundTrip) {
  EXPECT_NEAR(dbm_to_watt(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(watt_to_dbm(1e-3), 0.0, 1e-12);
  EXPECT_NEAR(dbm_to_watt(10.0), 10e-3, 1e-12);
  EXPECT_NEAR(watt_to_dbm(dbm_to_watt(-17.3)), -17.3, 1e-10);
}

TEST(UnitsTest, LossAmplitude) {
  // 3 dB power loss ~ amplitude factor 1/sqrt(2).
  EXPECT_NEAR(loss_db_to_amplitude(3.0103), 1.0 / std::sqrt(2.0), 1e-4);
  EXPECT_DOUBLE_EQ(loss_db_to_amplitude(0.0), 1.0);
}

TEST(UnitsTest, PhotonEnergyAt1550) {
  // ~0.8 eV at 1550 nm.
  const double ev = photon_energy(kTelecomWavelength) / kElementaryCharge;
  EXPECT_NEAR(ev, 0.8, 0.01);
}

TEST(MaterialTest, FigureOfMeritOrdering) {
  // Paper Section 3: GSST and GeSe have larger FOM (delta n / delta k)
  // than the GST-225 baseline; GeSe is the most transparent.
  const double gst = make_gst225().figure_of_merit();
  const double gsst = make_gsst().figure_of_merit();
  const double gese = make_gese().figure_of_merit();
  EXPECT_GT(gsst, gst);
  EXPECT_GT(gese, gsst);
}

TEST(MaterialTest, EffectiveMediumEndpoints) {
  const PcmMaterial m = make_gsst();
  const auto am = m.at_fraction(0.0);
  const auto cr = m.at_fraction(1.0);
  EXPECT_NEAR(am.n, m.amorphous.n, 1e-9);
  EXPECT_NEAR(am.k, m.amorphous.k, 1e-9);
  EXPECT_NEAR(cr.n, m.crystalline.n, 1e-9);
  EXPECT_NEAR(cr.k, m.crystalline.k, 1e-9);
}

TEST(MaterialTest, EffectiveMediumMonotone) {
  const PcmMaterial m = make_gsst();
  double prev_n = -1.0;
  double prev_k = -1.0;
  for (double x = 0.0; x <= 1.0001; x += 0.05) {
    const auto oc = m.at_fraction(x);
    EXPECT_GT(oc.n, prev_n);
    EXPECT_GE(oc.k, prev_k);
    prev_n = oc.n;
    prev_k = oc.k;
  }
}

TEST(MaterialTest, LookupByName) {
  EXPECT_EQ(pcm_by_name("GSST").name, "GSST");
  EXPECT_EQ(pcm_by_name("gst").name, "GST-225");
  EXPECT_EQ(pcm_by_name("GeSe").name, "GeSe");
  EXPECT_THROW((void)pcm_by_name("unobtainium"), std::invalid_argument);
}

TEST(PcmCellTest, CoversTwoPiWithDefaultGeometry) {
  PcmCell cell{PcmCellConfig{}};
  EXPECT_GT(cell.max_phase(), 2.0 * kPi);
}

TEST(PcmCellTest, PhaseMonotoneInFraction) {
  PcmCell cell{PcmCellConfig{}};
  double prev = -1.0;
  for (double x = 0.0; x <= 1.0001; x += 0.05) {
    const double p = cell.phase_of_fraction(x);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(PcmCellTest, FractionForPhaseInverts) {
  // The phase map inverts the phase law on its level grid: the phase of
  // level i quantizes back to level i.
  PcmCellConfig cfg;
  cfg.level_bits = 4;
  const PcmCell cell{cfg};
  const PcmPhaseMap map(cfg);
  for (int i = 0; i < map.levels(); ++i) {
    const double phase =
        cell.phase_of_fraction(static_cast<double>(i) / (map.levels() - 1));
    if (phase >= kTwoPi) break;  // wraps to another level
    EXPECT_DOUBLE_EQ(map.quantize(phase).phase, phase) << "level " << i;
  }
}

TEST(PcmCellTest, ProgramPhaseQuantizesToLevels) {
  PcmCellConfig cfg;
  cfg.level_bits = 2;  // 4 levels
  const PcmCell cell{cfg};
  const PcmPhaseMap map(cfg);
  const double phase = map.quantize(cell.max_phase() * 0.37).phase;
  // The phase must be that of one of x in {0, 1/3, 2/3, 1}.
  double nearest = 1e9;
  for (int k = 0; k < 4; ++k)
    nearest = std::min(nearest,
                       std::abs(phase - cell.phase_of_fraction(k / 3.0)));
  EXPECT_LT(nearest, 1e-12);
}

TEST(PcmCellTest, ProgramLevelRangeChecked) {
  PcmCellConfig cfg;
  cfg.level_bits = 0;
  EXPECT_THROW(PcmCell{cfg}, std::invalid_argument);
  cfg.level_bits = 17;
  EXPECT_THROW(PcmCell{cfg}, std::invalid_argument);
  cfg.level_bits = 3;
  PcmCell cell{cfg};
  EXPECT_EQ(cell.levels(), 8);
  cell.program_fraction(1.2);  // clamps to the top level
  EXPECT_NEAR(cell.fraction(), 1.0, 1e-12);
  cell.program_fraction(0.3);  // nearest of the 8 levels is 2/7
  EXPECT_NEAR(cell.fraction(), 2.0 / 7.0, 1e-12);
}

TEST(PcmCellTest, AccumulationIntegratesAndSaturates) {
  PcmCellConfig cfg;
  cfg.accumulation_step = 0.25;
  PcmCell cell{cfg};
  cell.accumulate();
  EXPECT_NEAR(cell.fraction(), 0.25, 1e-12);
  cell.accumulate(2.0);
  EXPECT_NEAR(cell.fraction(), 0.75, 1e-12);
  cell.accumulate(5.0);
  EXPECT_NEAR(cell.fraction(), 1.0, 1e-12);  // saturated
}

TEST(PcmCellTest, ResetReturnsToAmorphous) {
  PcmCell cell{PcmCellConfig{}};
  cell.program_fraction(0.8);
  cell.reset();
  EXPECT_DOUBLE_EQ(cell.fraction(), 0.0);
  EXPECT_NEAR(cell.phase_of_fraction(cell.fraction()), 0.0, 1e-12);
}

TEST(PcmCellTest, NonVolatileHoldCostsNothingButWritesDo) {
  // A write pays RESET plus the SET share of the crystallized fraction;
  // nothing in the cell charges for holding a level.
  const PcmCellConfig cfg;
  const PcmMaterial& m = cfg.material;
  PcmCell cell{cfg};
  EXPECT_DOUBLE_EQ(cell.energy_spent_j(), 0.0);
  cell.program_fraction(1.0);
  EXPECT_DOUBLE_EQ(cell.energy_spent_j(),
                   m.reset_energy_j + m.set_energy_j);
  cell.program_fraction(0.0);
  EXPECT_DOUBLE_EQ(cell.energy_spent_j(),
                   2.0 * m.reset_energy_j + m.set_energy_j);
  EXPECT_DOUBLE_EQ(pcm_write_energy_j(0.5, m),
                   m.reset_energy_j + 0.5 * m.set_energy_j);
}

TEST(PcmCellTest, DriftIsWorstAtIntermediateLevels) {
  // Only the amorphous fraction relaxes, and a fully amorphous cell has
  // no phase to scale: a half-crystalline cell drifts in phase, a fully
  // crystalline one does not.
  const PcmCellConfig cfg;
  const PcmMaterial& m = cfg.material;
  const PcmCell cell{cfg};
  const auto shift = [&](double x) {
    return cell.phase_of_fraction(x) * (1.0 - pcm_drift_factor(x, 1e6, m));
  };
  EXPECT_GT(shift(0.5), 0.0);
  EXPECT_GT(shift(0.5), shift(0.1));
  EXPECT_GT(shift(0.5), shift(0.9));
  EXPECT_NEAR(shift(1.0), 0.0, 1e-12);
  EXPECT_NEAR(shift(0.0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(pcm_drift_factor(0.5, 0.0, m), 1.0);
  // The phase map ages its levels by the same law.
  const PcmPhaseMap map(cfg);
  const double fresh = map.quantize(3.0).phase;
  EXPECT_LT(map.quantize(3.0, 1e6).phase, fresh);
}

TEST(PcmCellTest, CrystallineStateIsLossier) {
  PcmCell cell{PcmCellConfig{}};
  EXPECT_GT(cell.amplitude_of_fraction(0.0), cell.amplitude_of_fraction(1.0));
  EXPECT_LE(cell.amplitude_of_fraction(0.0), 1.0);
}

TEST(PcmPhaseMapTest, QuantizeFindsNearestLevel) {
  PcmCellConfig cfg;
  cfg.level_bits = 6;
  const PcmPhaseMap map(cfg);
  EXPECT_TRUE(map.covers_two_pi());
  const PcmCell probe(cfg);
  for (double phase : {0.3, 1.7, 3.1, 5.9}) {
    const auto q = map.quantize(phase);
    // Quantization error bounded by half the worst level spacing.
    const double worst_step = probe.max_phase() / (map.levels() - 1);
    EXPECT_LE(std::abs(q.phase - phase), worst_step);
    EXPECT_GT(q.amplitude, 0.0);
    EXPECT_LE(q.amplitude, 1.0);
  }
}

TEST(PcmPhaseMapTest, MoreBitsSmallerError) {
  PcmCellConfig lo;
  lo.level_bits = 3;
  PcmCellConfig hi;
  hi.level_bits = 8;
  const PcmPhaseMap mlo(lo), mhi(hi);
  double err_lo = 0.0, err_hi = 0.0;
  for (double p = 0.05; p < 6.2; p += 0.1) {
    err_lo += std::abs(mlo.quantize(p).phase - p);
    err_hi += std::abs(mhi.quantize(p).phase - p);
  }
  EXPECT_LT(err_hi, err_lo / 8.0);
}

TEST(PhaseTest, WrapIntoZeroTwoPi) {
  EXPECT_DOUBLE_EQ(kTwoPi, 2.0 * kPi);
  EXPECT_DOUBLE_EQ(wrap_phase(1.0), 1.0);
  EXPECT_DOUBLE_EQ(wrap_phase(kTwoPi), 0.0);
  EXPECT_NEAR(wrap_phase(-1.0), kTwoPi - 1.0, 1e-15);
  EXPECT_NEAR(wrap_phase(7.0 * kPi + 0.5), kPi + 0.5, 1e-12);
  for (double p = -20.0; p < 20.0; p += 0.37) {
    const double w = wrap_phase(p);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, kTwoPi);
  }
}

TEST(ThermoOpticTest, PowerScalesWithPhase) {
  const ThermoOpticConfig t;
  EXPECT_NEAR(heater_power_w(kPi, t), t.p_pi_w, 1e-12);
  EXPECT_NEAR(heater_power_w(kPi / 2.0, t), t.p_pi_w / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(heater_power_w(0.0, t), 0.0);
  // The heater holds the wrapped phase.
  EXPECT_NEAR(heater_power_w(kPi / 2.0 + kTwoPi, t), t.p_pi_w / 2.0, 1e-12);
  EXPECT_NEAR(heater_power_w(-kPi / 2.0, t), 1.5 * t.p_pi_w, 1e-12);
}

TEST(ThermoOpticTest, WriteCostsHalfPPiPerResponseTime) {
  ThermoOpticConfig t;
  t.p_pi_w = 30e-3;
  t.response_time_s = 4e-6;
  EXPECT_DOUBLE_EQ(thermo_write_energy_j(1.0, t), 0.5 * 30e-3 * 4e-6);
  EXPECT_DOUBLE_EQ(thermo_write_energy_j(10.0, t), 10.0 * 0.5 * 30e-3 * 4e-6);
  EXPECT_DOUBLE_EQ(thermo_write_energy_j(0.0, t), 0.0);
}

TEST(PcmShifterTest, ZeroHoldPowerAndQuantizedPhase) {
  // A PCM shifter holds its level without power (the engine's
  // holding_power_w reads 0 for PCM weights); its phase is the nearest
  // of 64 levels and its write costs RESET plus a partial SET.
  const PcmCellConfig cfg;
  const PcmPhaseMap map(cfg);
  EXPECT_NEAR(map.quantize(1.5).phase, 1.5, 0.1);
  EXPECT_GT(pcm_write_energy_j(0.0, cfg.material), 0.0);
  EXPECT_DOUBLE_EQ(pcm_program_time_s(cfg.material),
                   cfg.material.reset_time_s + cfg.material.set_time_s);
}

TEST(CouplerTest, IdealFiftyFiftyIsUnitary) {
  DirectionalCoupler dc;
  dc.insertion_loss_db = 0.0;
  const Transfer2 t = dc.transfer();
  EXPECT_TRUE(t.is_unitary(1e-12));
  EXPECT_NEAR(std::norm(t.b), 0.5, 1e-12);
  EXPECT_NEAR(dc.cross_coupling(), 0.5, 1e-12);
}

TEST(CouplerTest, ImbalanceShiftsSplitting) {
  DirectionalCoupler dc;
  dc.delta_eta = 0.1;
  dc.insertion_loss_db = 0.0;
  EXPECT_GT(dc.cross_coupling(), 0.5);
  EXPECT_TRUE(dc.transfer().is_unitary(1e-12));
}

TEST(CouplerTest, LossScalesAmplitude) {
  DirectionalCoupler dc;
  dc.insertion_loss_db = 3.0103;
  const Transfer2 t = dc.transfer();
  EXPECT_NEAR(std::norm(t.a) + std::norm(t.c), 0.5, 1e-4);
}

TEST(MziTest, IdealIsUnitaryForAllPhases) {
  for (double theta = 0.0; theta < 6.3; theta += 0.7)
    for (double phi = 0.0; phi < 6.3; phi += 0.9) {
      EXPECT_TRUE(mzi_ideal(theta, phi).is_unitary(1e-12));
      EXPECT_TRUE(
          mzi_ideal(theta, phi, MziStyle::kSymmetric).is_unitary(1e-12));
    }
}

TEST(MziTest, BarAndCrossStates) {
  // theta = pi: |T_00| = 1 (bar); theta = 0: |T_01| = 1 (cross).
  const Transfer2 bar = mzi_ideal(kPi, 0.0);
  EXPECT_NEAR(std::abs(bar.a), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(bar.b), 0.0, 1e-12);
  const Transfer2 cross = mzi_ideal(0.0, 0.0);
  EXPECT_NEAR(std::abs(cross.a), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(cross.b), 1.0, 1e-12);
}

TEST(MziTest, SymmetricEqualsStandardUpToGlobalPhase) {
  const double theta = 1.1, phi = 2.3;
  const Transfer2 std_t = mzi_ideal(theta, phi, MziStyle::kStandard);
  const Transfer2 sym_t = mzi_ideal(theta, phi, MziStyle::kSymmetric);
  const auto g = std::polar(1.0, -(theta + phi) / 2.0);
  EXPECT_LT(std_t.scaled(g).max_abs_diff(sym_t), 1e-12);
}

TEST(MziTest, PhysicalMatchesIdealWithoutImperfections) {
  MziImperfections imp;
  imp.coupler_loss_db = 0.0;
  imp.ps_loss_db = 0.0;
  const Transfer2 phys = mzi_physical(0.8, 1.9, imp);
  EXPECT_LT(phys.max_abs_diff(mzi_ideal(0.8, 1.9)), 1e-12);
}

TEST(MziTest, CouplerErrorBreaksExtinction) {
  MziImperfections imp;
  imp.coupler_loss_db = 0.0;
  imp.ps_loss_db = 0.0;
  imp.coupler1_delta_eta = 0.05;
  imp.coupler2_delta_eta = -0.04;
  // Cross state can no longer be perfect.
  const Transfer2 t = mzi_physical(0.0, 0.0, imp);
  EXPECT_GT(std::abs(t.a), 1e-4);
}

TEST(MziTest, SymmetricCellBalancesStateDependentLoss) {
  // PCM absorption asymmetry distorts a standard cell but only attenuates
  // a symmetric cell (paper Section 3 loss-minimization motivation).
  MziImperfections imp;
  imp.coupler_loss_db = 0.0;
  imp.ps_loss_db = 0.0;
  imp.theta_arm_amplitude = 0.9;
  const Transfer2 std_t = mzi_physical(1.2, 0.0, imp, MziStyle::kStandard);
  const Transfer2 sym_t = mzi_physical(1.2, 0.0, imp, MziStyle::kSymmetric);
  // Symmetric: T = 0.9 * unitary; renormalizing restores unitarity.
  EXPECT_TRUE(sym_t.scaled(1.0 / 0.9).is_unitary(1e-9));
  EXPECT_FALSE(std_t.scaled(1.0 / 0.9).is_unitary(1e-3));
}

TEST(MziTest, NullingZeroesChosenPort) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const aspen::lina::cplx u = rng.cgaussian();
    const aspen::lina::cplx v = rng.cgaussian();
    for (int port : {0, 1}) {
      const auto sol = null_port(u, v, port);
      const Transfer2 t = mzi_ideal(sol.theta, sol.phi);
      const auto out_top = t.a * u + t.b * v;
      const auto out_bot = t.c * u + t.d * v;
      const double nulled = port == 0 ? std::abs(out_top) : std::abs(out_bot);
      EXPECT_LT(nulled, 1e-10) << "trial " << trial << " port " << port;
    }
  }
}

TEST(ModulatorTest, QuantizationRespectsBitDepth) {
  ModulatorConfig cfg;
  cfg.dac_bits = 2;  // levels at -1, -1/3, 1/3, 1
  Modulator mod(cfg);
  EXPECT_NEAR(mod.quantize(0.2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mod.quantize(-0.9), -1.0, 1e-12);
  EXPECT_NEAR(mod.quantize(2.0), 1.0, 1e-12);  // clamped
}

TEST(ModulatorTest, SignBecomesFieldSign) {
  Modulator mod;
  EXPECT_LT(mod.encode(-0.7).real(), 0.0);
  EXPECT_GT(mod.encode(0.7).real(), 0.0);
}

TEST(ModulatorTest, ExtinctionFloorsSmallValues) {
  ModulatorConfig cfg;
  cfg.extinction_ratio_db = 20.0;  // floor amplitude 0.1
  cfg.insertion_loss_db = 0.0;
  Modulator mod(cfg);
  EXPECT_NEAR(std::abs(mod.encode(0.0)), 0.1, 1e-9);
}

TEST(PhotodetectorTest, IdealCurrentLinear) {
  Photodetector pd;
  EXPECT_NEAR(pd.ideal_current(1e-3) - pd.ideal_current(0.0), 1e-3, 1e-12);
}

TEST(PhotodetectorTest, NoiseGrowsWithPower) {
  Photodetector pd;
  EXPECT_GT(pd.noise_rms_a(1e-3), pd.noise_rms_a(1e-6));
}

TEST(PhotodetectorTest, SnrIncreasesWithPower) {
  Photodetector pd;
  EXPECT_GT(pd.snr(1e-3), pd.snr(1e-5));
}

TEST(CoherentReceiverTest, RecoversFieldOnAverage) {
  CoherentReceiver rx{PhotodetectorConfig{}, AdcConfig{}};
  Rng rng(9);
  const std::complex<double> field{0.012, -0.007};
  std::complex<double> acc{0.0, 0.0};
  const int kAvg = 2000;
  for (int i = 0; i < kAvg; ++i) {
    const double n_i = rng.gaussian();
    const double n_q = rng.gaussian();
    acc += rx.measure(field, n_i, n_q);
  }
  acc /= static_cast<double>(kAvg);
  EXPECT_NEAR(acc.real(), field.real(), 2e-3);
  EXPECT_NEAR(acc.imag(), field.imag(), 2e-3);
}

TEST(CwLaserTest, ElectricalPowerFromWallPlug) {
  const CwLaserConfig c;
  EXPECT_NEAR(wall_plug_power_w(1.0, c), c.power_w / c.wall_plug_efficiency,
              1e-12);
  EXPECT_NEAR(wall_plug_power_w(3.0, c),
              3.0 * c.power_w / c.wall_plug_efficiency, 1e-12);
}

TEST(CwLaserTest, RinScalesWithPower) {
  CwLaserConfig a;
  a.power_w = 1e-3;
  CwLaserConfig b;
  b.power_w = 10e-3;
  EXPECT_GT(CwLaser(b).rin_rms_w(), CwLaser(a).rin_rms_w());
}

TEST(YamadaTest, QuiescentWithoutInput) {
  YamadaNeuron n;
  const auto trace = n.run(20000);
  for (double i : trace) EXPECT_LT(i, 1e-3);
}

TEST(YamadaTest, SupraThresholdPerturbationFiresPulse) {
  YamadaNeuron n;
  // Strong injection for a short window.
  std::vector<double> inj(200, 0.5);
  (void)n.run(200, inj);
  const auto trace = n.run(30000);
  double peak = 0.0;
  for (double i : trace) peak = std::max(peak, i);
  EXPECT_GT(peak, n.config().spike_threshold)
      << "excitable laser must fire a large pulse";
}

TEST(YamadaTest, SubThresholdPerturbationDecays) {
  YamadaNeuron n;
  std::vector<double> inj(200, 1e-4);
  (void)n.run(200, inj);
  const auto trace = n.run(30000);
  double peak = 0.0;
  for (double i : trace) peak = std::max(peak, i);
  EXPECT_LT(peak, 0.5 * n.config().spike_threshold);
}

TEST(YamadaTest, RefractoryAfterSpike) {
  // Under constant supra-threshold drive the excitable laser emits a
  // periodic pulse train whose interspike interval is set by the slow
  // gain recovery — i.e. a refractory period much longer than the pulse.
  YamadaNeuron n;
  std::vector<std::size_t> spike_steps;
  for (std::size_t step = 0; step < 120000; ++step) {
    (void)n.step(0.02);
    if (n.spiked()) spike_steps.push_back(step);
  }
  ASSERT_GE(spike_steps.size(), 2u) << "constant drive must elicit a train";
  std::size_t min_gap = SIZE_MAX;
  for (std::size_t i = 1; i < spike_steps.size(); ++i)
    min_gap = std::min(min_gap, spike_steps[i] - spike_steps[i - 1]);
  // Gain recovery time ~ 1/gamma_g = 20 time units = 2000 steps at
  // dt = 0.01; the refractory gap must be at least that order.
  EXPECT_GT(min_gap, 1000u);
}

TEST(LinkBudgetTest, LossesAccumulate) {
  LinkBudget lb(1e-3);
  lb.add("in-coupler", 1.5).add_repeated("mzi-column", 0.2, 8).add("out", 1.5);
  EXPECT_NEAR(lb.total_loss_db(), 1.5 + 8 * 0.2 + 1.5, 1e-12);
  EXPECT_NEAR(lb.output_power_w(), 1e-3 * std::pow(10.0, -4.6 / 10.0), 1e-9);
}

TEST(LinkBudgetTest, EnobDropsWithDepth) {
  Photodetector pd;
  LinkBudget shallow(1e-3);
  shallow.add_repeated("col", 0.2, 4);
  LinkBudget deep(1e-3);
  deep.add_repeated("col", 0.2, 64);
  EXPECT_GT(shallow.enob(pd), deep.enob(pd));
}

TEST(LinkBudgetTest, InvalidInputsThrow) {
  EXPECT_THROW(LinkBudget(0.0), std::invalid_argument);
  LinkBudget lb(1e-3);
  EXPECT_THROW(lb.add("x", -1.0), std::invalid_argument);
}

}  // namespace
