// Regression coverage for the column-factored mesh transfer cache: the
// incrementally maintained transfer() must stay within 1e-12 of the
// from-scratch transfer_uncached() evaluation across every layout style,
// error model, PCM state and randomized set_phase sequence — and the
// rewritten mesh::calibrate must reproduce the pre-refactor fidelities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "lina/random.hpp"
#include "mesh/analysis.hpp"
#include "mesh/calibrate.hpp"
#include "mesh/decompose.hpp"
#include "mesh/layout.hpp"
#include "mesh/physical_mesh.hpp"

namespace {

using namespace aspen::mesh;
using aspen::lina::CMat;
using aspen::lina::Rng;

constexpr double kTol = 1e-12;
constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Drive `ops` randomized single-phase updates, checking the cached
/// transfer against the from-scratch evaluation after every one.
void check_random_updates(PhysicalMesh& mesh, Rng& rng, int ops,
                          const char* tag) {
  const std::size_t nph = mesh.phase_count();
  ASSERT_GT(nph, 0u) << tag;
  for (int op = 0; op < ops; ++op) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, nph - 1));
    mesh.set_phase(k, rng.uniform(0.0, kTwoPi));
    const double diff = mesh.transfer().max_abs_diff(mesh.transfer_uncached());
    ASSERT_LT(diff, kTol) << tag << " op=" << op << " slot=" << k;
  }
}

/// Sweep every phase slot in order (the calibrate access pattern: probe
/// two trial values, then settle), checking against scratch throughout.
void check_coordinate_sweep(PhysicalMesh& mesh, Rng& rng, const char* tag) {
  for (std::size_t k = 0; k < mesh.phase_count(); ++k) {
    const double old = mesh.phase(k);
    mesh.set_phase(k, 0.0);
    ASSERT_LT(mesh.transfer().max_abs_diff(mesh.transfer_uncached()), kTol)
        << tag << " probe0 slot=" << k;
    mesh.set_phase(k, rng.uniform(0.0, kTwoPi));
    ASSERT_LT(mesh.transfer().max_abs_diff(mesh.transfer_uncached()), kTol)
        << tag << " probe1 slot=" << k;
    mesh.set_phase(k, old + 0.1);
    ASSERT_LT(mesh.transfer().max_abs_diff(mesh.transfer_uncached()), kTol)
        << tag << " settle slot=" << k;
  }
}

MeshErrorModel dirty_model(std::uint64_t seed) {
  MeshErrorModel em;
  em.coupler_sigma = 0.05;
  em.phase_sigma = 0.04;
  em.thermal_crosstalk = 0.03;
  em.seed = seed;
  return em;
}

struct LayoutCase {
  const char* name;
  MeshLayout layout;
};

std::vector<LayoutCase> all_layouts(std::size_t n) {
  return {
      {"clements", clements_layout(n)},
      {"clements-sym", clements_layout(n, aspen::phot::MziStyle::kSymmetric)},
      {"reck", reck_layout(n)},
      {"fldzhyan", fldzhyan_layout(n)},
      {"redundant", redundant_layout(n, 2)},
  };
}

TEST(IncrementalTransferTest, MatchesScratchAcrossLayoutsCleanDie) {
  Rng rng(101);
  for (auto& lc : all_layouts(6)) {
    MeshErrorModel em;  // deterministic losses only
    PhysicalMesh mesh(lc.layout, em);
    check_random_updates(mesh, rng, 60, lc.name);
  }
}

TEST(IncrementalTransferTest, MatchesScratchAcrossLayoutsDirtyDie) {
  Rng rng(102);
  std::uint64_t die = 42;
  for (auto& lc : all_layouts(6)) {
    PhysicalMesh mesh(lc.layout, dirty_model(die++));
    check_random_updates(mesh, rng, 60, lc.name);
  }
}

TEST(IncrementalTransferTest, MatchesScratchWithPcm) {
  Rng rng(103);
  const aspen::phot::PcmCellConfig pcm =
      aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  for (auto& lc : all_layouts(5)) {
    PhysicalMesh mesh(lc.layout, dirty_model(7));
    mesh.enable_pcm(pcm);
    mesh.set_drift_time(1e4);
    check_random_updates(mesh, rng, 40, lc.name);
  }
}

TEST(IncrementalTransferTest, CoordinateSweepPattern) {
  Rng rng(104);
  for (auto& lc : all_layouts(5)) {
    PhysicalMesh mesh(lc.layout, dirty_model(11));
    check_coordinate_sweep(mesh, rng, lc.name);
  }
}

TEST(IncrementalTransferTest, SurvivesGlobalStateChanges) {
  // program() / detuning / PCM toggles / drift interleaved with phase
  // updates must all invalidate correctly.
  Rng rng(105);
  PhysicalMesh mesh(clements_layout(6), dirty_model(3));
  const std::size_t nph = mesh.phase_count();
  const aspen::phot::PcmCellConfig pcm =
      aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  for (int round = 0; round < 6; ++round) {
    std::vector<double> phases(nph);
    for (auto& p : phases) p = rng.uniform(0.0, kTwoPi);
    mesh.program(phases);
    ASSERT_LT(mesh.transfer().max_abs_diff(mesh.transfer_uncached()), kTol);
    switch (round % 4) {
      case 0: mesh.set_wavelength_detuning_nm(rng.uniform(-3.0, 3.0)); break;
      case 1: mesh.enable_pcm(pcm); break;
      case 2: mesh.set_drift_time(rng.uniform(0.0, 1e6)); break;
      case 3: mesh.disable_pcm(); break;
    }
    check_random_updates(mesh, rng, 20, "global-state");
  }
}

TEST(IncrementalTransferTest, LongUpdateSequenceStaysAccurate) {
  // Hundreds of rank-one updates (through several forced cache refreshes)
  // must not accumulate error beyond the tolerance.
  Rng rng(106);
  PhysicalMesh mesh(clements_layout(8), dirty_model(99));
  const std::size_t nph = mesh.phase_count();
  for (int op = 0; op < 600; ++op) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, nph - 1));
    mesh.set_phase(k, rng.uniform(0.0, kTwoPi));
    (void)mesh.transfer();  // keep the incremental path hot
  }
  ASSERT_LT(mesh.transfer().max_abs_diff(mesh.transfer_uncached()), kTol);
}

TEST(IncrementalTransferTest, TransferAtDoesNotDisturbState) {
  PhysicalMesh mesh(clements_layout(5), dirty_model(13));
  Rng rng(107);
  std::vector<double> phases(mesh.phase_count());
  for (auto& p : phases) p = rng.uniform(0.0, kTwoPi);
  mesh.program(phases);
  const CMat t0 = mesh.transfer();
  const CMat detuned = mesh.transfer_at(4.0);
  EXPECT_GT(detuned.max_abs_diff(t0), 1e-6) << "detuning must matter";
  EXPECT_DOUBLE_EQ(mesh.wavelength_detuning_nm(), 0.0);
  EXPECT_LT(mesh.transfer().max_abs_diff(t0), 1e-15)
      << "transfer_at must not touch cached state";
  // And it must agree with the mutate-and-restore equivalent.
  mesh.set_wavelength_detuning_nm(4.0);
  EXPECT_LT(mesh.transfer().max_abs_diff(detuned), kTol);
}

/// Bitwise equality of two transfers (memcmp), not a tolerance.
bool bitwise_equal(const CMat& a, const CMat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(a.raw()[0])) == 0;
}

TEST(IncrementalTransferTest, RebuildAfterRestoreEqualsFreshMesh) {
  // A fault campaign's phase upsets: build, perturb one phase, restore,
  // perturb another. The rebuild after the restore copies the last full
  // rebuild; the transfer must be bitwise that of a freshly built mesh
  // given the same phases and the same perturbation.
  const aspen::phot::PcmCellConfig pcm =
      aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  for (const bool use_pcm : {false, true}) {
    Rng rng(108);
    PhysicalMesh mesh(clements_layout(8), dirty_model(21));
    if (use_pcm) {
      mesh.enable_pcm(pcm);
      mesh.set_drift_time(1e4);
    }
    std::vector<double> phases(mesh.phase_count());
    for (auto& p : phases) p = rng.uniform(0.0, kTwoPi);
    mesh.program(phases);
    (void)mesh.transfer();
    const PhysicalMesh::Snapshot programmed = mesh.snapshot();
    for (int trial = 0; trial < 6; ++trial) {
      const auto k =
          static_cast<std::size_t>(rng.uniform_int(0, phases.size() - 1));
      const double delta = rng.uniform(-1.5, 1.5);
      mesh.restore(programmed);
      (void)mesh.transfer();
      mesh.set_phase(k, mesh.phase(k) + delta);

      PhysicalMesh fresh(clements_layout(8), dirty_model(21));
      if (use_pcm) {
        fresh.enable_pcm(pcm);
        fresh.set_drift_time(1e4);
      }
      fresh.program(phases);
      (void)fresh.transfer();
      fresh.set_phase(k, fresh.phase(k) + delta);
      EXPECT_TRUE(bitwise_equal(mesh.transfer(), fresh.transfer()))
          << (use_pcm ? "pcm" : "thermo-optic") << " trial " << trial;
    }
  }
}

TEST(IncrementalTransferTest, KeptProductsMatchFreshMeshForEveryPhase) {
  // Every phase of the mesh upset in a shuffled order, each from a
  // restore of the programmed phases and followed by a second upset of
  // the next phase in that order: the rebuild after each restore reverts
  // the columns the last two upsets replaced and keeps every prefix and
  // suffix product free of them. After each upset the transfer must be
  // bitwise that of a freshly built mesh given the same upsets, on a
  // thermo-optic die with crosstalk and on a drifted PCM die.
  const aspen::phot::PcmCellConfig pcm =
      aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  for (const bool use_pcm : {false, true}) {
    const auto make = [&] {
      PhysicalMesh m(clements_layout(8), dirty_model(23));
      if (use_pcm) {
        m.enable_pcm(pcm);
        m.set_drift_time(1e4);
      }
      return m;
    };
    Rng rng(110);
    PhysicalMesh mesh = make();
    std::vector<double> phases(mesh.phase_count());
    for (auto& p : phases) p = rng.uniform(0.0, kTwoPi);
    mesh.program(phases);
    (void)mesh.transfer();
    const PhysicalMesh::Snapshot programmed = mesh.snapshot();
    std::vector<std::size_t> order(phases.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    PhysicalMesh fresh = make();
    for (std::size_t i = 0; i < order.size(); ++i) {
      mesh.restore(programmed);
      (void)mesh.transfer();
      fresh = make();
      fresh.program(phases);
      (void)fresh.transfer();
      for (const std::size_t k : {order[i], order[(i + 1) % order.size()]}) {
        const double delta = rng.uniform(-1.5, 1.5);
        mesh.set_phase(k, mesh.phase(k) + delta);
        fresh.set_phase(k, fresh.phase(k) + delta);
        ASSERT_TRUE(bitwise_equal(mesh.transfer(), fresh.transfer()))
            << (use_pcm ? "pcm" : "thermo-optic") << " phase " << k
            << " after phase " << order[i];
      }
    }
  }
}

TEST(IncrementalTransferTest, PcmToggleDropsTheLastRebuild) {
  // The PCM map is a rebuild input the memo does not compare: enabling
  // or disabling it must drop the kept rebuild.
  const aspen::phot::PcmCellConfig pcm =
      aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  Rng rng(109);
  PhysicalMesh mesh(clements_layout(6), dirty_model(22));
  std::vector<double> phases(mesh.phase_count());
  for (auto& p : phases) p = rng.uniform(0.0, kTwoPi);
  mesh.program(phases);
  const CMat thermo = mesh.transfer();
  mesh.enable_pcm(pcm);
  EXPECT_TRUE(bitwise_equal(mesh.transfer(), mesh.transfer_uncached()));
  EXPECT_FALSE(bitwise_equal(mesh.transfer(), thermo));
  mesh.disable_pcm();
  EXPECT_TRUE(bitwise_equal(mesh.transfer(), thermo));
}

TEST(IncrementalTransferTest, ColumnOfPhaseIsConsistent) {
  const MeshLayout layout = clements_layout(6);
  PhysicalMesh mesh(layout, MeshErrorModel{});
  // Phase slots are assigned to columns in nondecreasing order and every
  // column index is within range.
  std::size_t prev = 0;
  for (std::size_t k = 0; k < mesh.phase_count(); ++k) {
    const std::size_t c = mesh.column_of_phase(k);
    ASSERT_LT(c, layout.columns.size());
    ASSERT_GE(c, prev);
    prev = c;
  }
}

// -- Calibration pinning: the rewritten calibrate must reproduce the
// -- pre-refactor final fidelities (captured from the O(columns * N^2)
// -- implementation) to well within 1e-9.

TEST(CalibratePinTest, Clements6) {
  Rng rng(42);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  MeshErrorModel em;
  em.coupler_sigma = 0.03;
  em.phase_sigma = 0.05;
  em.seed = 123;
  PhysicalMesh mesh(clements_layout(6), em);
  mesh.program(clements_decompose(u).phases);
  const auto rep = calibrate(mesh, u);
  EXPECT_NEAR(rep.final_fidelity, 0.999982915073901, 1e-9);
}

TEST(CalibratePinTest, ClementsSymmetric5) {
  Rng rng(43);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  MeshErrorModel em;
  em.coupler_sigma = 0.04;
  em.phase_sigma = 0.03;
  em.seed = 321;
  PhysicalMesh mesh(clements_layout(5, aspen::phot::MziStyle::kSymmetric),
                    em);
  const auto rep = calibrate(mesh, u);
  EXPECT_NEAR(rep.final_fidelity, 0.995375712091583, 1e-9);
}

TEST(CalibratePinTest, Reck5) {
  Rng rng(44);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  MeshErrorModel em;
  em.coupler_sigma = 0.05;
  em.seed = 777;
  PhysicalMesh mesh(reck_layout(5), em);
  ProgrammedMesh pm;
  DecomposeScratch ws;
  reck_decompose(u, aspen::phot::MziStyle::kStandard, ws, pm);
  mesh.program(pm.phases);
  const auto rep = calibrate(mesh, u);
  EXPECT_NEAR(rep.final_fidelity, 0.999941928167531, 1e-9);
}

TEST(CalibratePinTest, Fldzhyan4) {
  Rng rng(45);
  const CMat u = aspen::lina::haar_unitary(4, rng);
  MeshErrorModel em;
  em.coupler_loss_db = 0.0;
  em.ps_loss_db = 0.0;
  em.routing_loss_db_per_column = 0.0;
  PhysicalMesh mesh(fldzhyan_layout(4, 8), em);
  CalibrationOptions opt;
  opt.restarts = 2;
  const auto rep = calibrate(mesh, u, opt);
  EXPECT_NEAR(rep.final_fidelity, 0.996639972253042, 1e-9);
}

TEST(CalibratePinTest, Clements16) {
  Rng rng(916);
  const CMat u = aspen::lina::haar_unitary(16, rng);
  MeshErrorModel em;
  em.coupler_sigma = 0.02;
  em.phase_sigma = 0.02;
  em.seed = 555;
  PhysicalMesh mesh(clements_layout(16), em);
  mesh.program(clements_decompose(u).phases);
  const auto rep = calibrate(mesh, u);
  EXPECT_NEAR(rep.final_fidelity, 0.999624859657566, 1e-9);
}

}  // namespace
