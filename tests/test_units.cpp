// Unit tests for the boundary-conversion helpers in photonics/units.hpp,
// the optical LinkBudget / ENOB analysis, and determinism of the shared
// aspen::lina::Rng (every bench table and BENCH_e2/BENCH_e7.json row is
// reproducible from its stated seed, so the generator's sequences are
// part of the contract).
#include <gtest/gtest.h>

#include <cmath>

#include "lina/random.hpp"
#include "photonics/link_budget.hpp"
#include "photonics/photodetector.hpp"
#include "photonics/units.hpp"

namespace {

using aspen::lina::Rng;
namespace phot = aspen::phot;

TEST(UnitsTest, PhotonEnergyAtTelecomWavelength) {
  // E = h*c/lambda at 1550 nm is ~0.8 eV = ~1.28e-19 J.
  const double e = phot::photon_energy(phot::kTelecomWavelength);
  EXPECT_NEAR(e / phot::kElementaryCharge, 0.8, 0.01);
  // Exact identity, not just a ballpark.
  EXPECT_DOUBLE_EQ(e, phot::kPlanck * phot::kSpeedOfLight /
                          phot::kTelecomWavelength);
}

TEST(UnitsTest, DbmWattRoundTrip) {
  EXPECT_DOUBLE_EQ(phot::dbm_to_watt(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(phot::dbm_to_watt(30.0), 1.0);
  EXPECT_NEAR(phot::dbm_to_watt(-30.0), 1e-6, 1e-18);
  for (double dbm : {-40.0, -3.0, 0.0, 7.5, 20.0}) {
    EXPECT_NEAR(phot::watt_to_dbm(phot::dbm_to_watt(dbm)), dbm, 1e-12);
  }
}

TEST(UnitsTest, PowerRatioDbRoundTrip) {
  EXPECT_DOUBLE_EQ(phot::db_to_power_ratio(0.0), 1.0);
  EXPECT_NEAR(phot::db_to_power_ratio(3.0), 2.0, 0.01);
  EXPECT_DOUBLE_EQ(phot::db_to_power_ratio(10.0), 10.0);
  for (double db : {-20.0, -3.0, 0.0, 3.0, 13.0}) {
    EXPECT_NEAR(phot::power_ratio_to_db(phot::db_to_power_ratio(db)), db,
                1e-12);
  }
}

TEST(UnitsTest, LossDbToAmplitude) {
  // A loss of L dB in power is L/2 dB in field amplitude:
  // |t|^2 must equal the power transmission.
  for (double loss_db : {0.0, 0.1, 3.0, 10.0}) {
    const double amp = phot::loss_db_to_amplitude(loss_db);
    EXPECT_NEAR(amp * amp, phot::db_to_power_ratio(-loss_db), 1e-15);
  }
  EXPECT_DOUBLE_EQ(phot::loss_db_to_amplitude(0.0), 1.0);
}

TEST(LinkBudgetTest, LossesAccumulateAcrossStages) {
  phot::LinkBudget link(phot::dbm_to_watt(10.0));  // 10 dBm in
  link.add("laser-coupling", 1.5)
      .add_repeated("mesh-column", 0.25, 8)
      .add("detector-coupling", 1.5);
  EXPECT_EQ(link.stages().size(), 10u);
  EXPECT_NEAR(link.total_loss_db(), 5.0, 1e-12);
  // 10 dBm - 5 dB = 5 dBm out.
  EXPECT_NEAR(phot::watt_to_dbm(link.output_power_w()), 5.0, 1e-12);
}

TEST(LinkBudgetTest, RejectsInvalidInputs) {
  EXPECT_THROW(phot::LinkBudget(0.0), std::invalid_argument);
  EXPECT_THROW(phot::LinkBudget(-1e-3), std::invalid_argument);
  phot::LinkBudget link(1e-3);
  EXPECT_THROW(link.add("gain?", -1.0), std::invalid_argument);
}

TEST(LinkBudgetTest, EnobDegradesWithLoss) {
  // Deeper meshes -> more loss -> lower detection SNR -> fewer effective
  // bits. This is the Section 3 argument for minimizing optical loss.
  const phot::Photodetector det;
  phot::LinkBudget shallow(1e-3);
  shallow.add_repeated("col", 0.25, 4);
  phot::LinkBudget deep(1e-3);
  deep.add_repeated("col", 0.25, 64);
  EXPECT_GT(shallow.snr(det), deep.snr(det));
  EXPECT_GT(shallow.enob(det), deep.enob(det));
  EXPECT_GT(shallow.enob(det), 0.0);
  // ENOB follows the standard (SNR_dB - 1.76) / 6.02 formula.
  const double snr_db = 10.0 * std::log10(shallow.snr(det));
  EXPECT_NEAR(shallow.enob(det), (snr_db - 1.76) / 6.02, 1e-12);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
    EXPECT_EQ(a.poisson(3.5), b.poisson(3.5));
  }
}

TEST(RngTest, PinnedRawEngineSequence) {
  // mt19937_64 output for a fixed seed is specified by the C++ standard,
  // so these values are portable across compilers and platforms. If this
  // test ever fails, every bench table and BENCH_e2/BENCH_e7.json row is
  // suspect.
  Rng rng(0x5eed5eedULL);
  auto& eng = rng.engine();
  EXPECT_EQ(eng(), 7090392361162978728ULL);
  EXPECT_EQ(eng(), 16563534141566478799ULL);
  EXPECT_EQ(eng(), 13657529692677218509ULL);
}

TEST(RngTest, DistributionsStayInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
    const auto k = rng.uniform_int(5, 9);
    EXPECT_GE(k, 5u);
    EXPECT_LE(k, 9u);
  }
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng parent1(99), parent2(99);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  // Forking is itself deterministic...
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
  }
  // ...and the parents stay in lock-step afterwards.
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(parent1.uniform(), parent2.uniform());
  }
}

}  // namespace
