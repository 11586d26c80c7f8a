// Unit + property tests for the mesh architectures (S3): layouts,
// Reck/Clements decompositions, physical mesh error models, calibration.
#include <gtest/gtest.h>

#include <cmath>

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

TEST(LayoutTest, ClementsCellCountAndDepth) {
  for (std::size_t n : {2, 3, 4, 5, 8, 12}) {
    const MeshLayout m = clements_layout(n);
    EXPECT_EQ(m.mzi_count(), n * (n - 1) / 2) << "n=" << n;
    // n MZI columns (1 for n = 2, whose odd column is empty) + output
    // phase column.
    EXPECT_EQ(m.depth(), (n == 2 ? 1 : n) + 1) << "n=" << n;
    EXPECT_EQ(m.phase_count(), n * (n - 1) + n) << "n=" << n;
  }
}

TEST(LayoutTest, ReckCellCountAndDepth) {
  for (std::size_t n : {2, 3, 4, 5, 8, 12}) {
    const MeshLayout m = reck_layout(n);
    EXPECT_EQ(m.mzi_count(), n * (n - 1) / 2) << "n=" << n;
    EXPECT_EQ(m.depth(), (n == 2 ? 1 : 2 * n - 3) + 1) << "n=" << n;
  }
}

TEST(LayoutTest, FldzhyanPhaseCount) {
  const MeshLayout m = fldzhyan_layout(6);  // default n+1 phase layers
  EXPECT_EQ(m.phase_count(), 6u * 7u);
  EXPECT_EQ(m.mzi_count(), 0u);
  EXPECT_GT(m.coupler_count(), 0u);
}

TEST(LayoutTest, RedundantAddsColumns) {
  const MeshLayout base = clements_layout(6);
  const MeshLayout red = redundant_layout(6, 2);
  EXPECT_EQ(red.depth(), base.depth() + 2);
  EXPECT_GT(red.phase_count(), base.phase_count());
}

TEST(LayoutTest, ValidationCatchesOverlap) {
  MeshLayout m;
  m.ports = 4;
  MziColumn bad;
  bad.top_ports = {0, 1};  // overlapping cells
  m.columns.emplace_back(bad);
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(LayoutTest, ValidationCatchesOutOfRange) {
  MeshLayout m;
  m.ports = 4;
  MziColumn bad;
  bad.top_ports = {3};  // cell would span ports 3,4 but ports = 4
  m.columns.emplace_back(bad);
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(ColumnPackerTest, PacksClementsRectangle) {
  // Packing the Clements encounter order for n=4 must give the canonical
  // alternating rectangle {0,2},{1},{0,2},{1}.
  ColumnPacker p;
  for (int t : {0, 2, 1, 0, 2, 1}) p.add_cell(t, 4);
  const auto cols = p.columns();
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0].top_ports, (std::vector<int>{0, 2}));
  EXPECT_EQ(cols[1].top_ports, (std::vector<int>{1}));
  EXPECT_EQ(cols[2].top_ports, (std::vector<int>{0, 2}));
  EXPECT_EQ(cols[3].top_ports, (std::vector<int>{1}));
}

class DecompositionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DecompositionTest, ClementsReconstructs) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  for (int trial = 0; trial < 3; ++trial) {
    const CMat u = aspen::lina::haar_unitary(n, rng);
    const ProgrammedMesh pm = clements_decompose(u);
    const CMat rebuilt = ideal_transfer(pm);
    EXPECT_LT(u.max_abs_diff(rebuilt), 1e-9) << "n=" << n << " t=" << trial;
  }
}

TEST_P(DecompositionTest, ReckReconstructs) {
  const std::size_t n = GetParam();
  Rng rng(2000 + n);
  for (int trial = 0; trial < 3; ++trial) {
    const CMat u = aspen::lina::haar_unitary(n, rng);
    ProgrammedMesh pm;
    DecomposeScratch ws;
    reck_decompose(u, aspen::phot::MziStyle::kStandard, ws, pm);
    const CMat rebuilt = ideal_transfer(pm);
    EXPECT_LT(u.max_abs_diff(rebuilt), 1e-9) << "n=" << n << " t=" << trial;
  }
}

TEST_P(DecompositionTest, ClementsLayoutMatchesBuilder) {
  const std::size_t n = GetParam();
  Rng rng(3000 + n);
  const CMat u = aspen::lina::haar_unitary(n, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  const MeshLayout built = clements_layout(n);
  ASSERT_EQ(pm.layout.columns.size(), built.columns.size());
  EXPECT_EQ(pm.layout.phase_count(), built.phase_count());
}

TEST_P(DecompositionTest, SymmetricStyleFidelityOne) {
  // Symmetric (Bell-Walmsley) cells reproduce the target up to a global
  // phase; fidelity must still be 1.
  const std::size_t n = GetParam();
  Rng rng(4000 + n);
  const CMat u = aspen::lina::haar_unitary(n, rng);
  const ProgrammedMesh pm =
      clements_decompose(u, aspen::phot::MziStyle::kSymmetric);
  EXPECT_NEAR(CMat::fidelity(u, ideal_transfer(pm)), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DecompositionTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10, 12, 16));

TEST(DecompositionTest, RejectsNonUnitary) {
  Rng rng(1);
  const CMat g = aspen::lina::ginibre(4, 4, rng);
  EXPECT_THROW((void)clements_decompose(g), std::invalid_argument);
  ProgrammedMesh pm;
  DecomposeScratch ws;
  EXPECT_THROW(reck_decompose(g, aspen::phot::MziStyle::kStandard, ws, pm),
               std::invalid_argument);
}

TEST(DecompositionTest, RejectsNonSquare) {
  const CMat g(3, 4);
  EXPECT_THROW((void)clements_decompose(g), std::invalid_argument);
}

TEST(DecompositionTest, IdentityGivesIdentity) {
  const CMat i8 = CMat::identity(8);
  const ProgrammedMesh pm = clements_decompose(i8);
  EXPECT_LT(ideal_transfer(pm).max_abs_diff(i8), 1e-10);
}

TEST(PhysicalMeshTest, ZeroErrorMatchesIdeal) {
  Rng rng(5);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  MeshErrorModel em;
  em.coupler_loss_db = 0.0;
  em.ps_loss_db = 0.0;
  em.routing_loss_db_per_column = 0.0;
  PhysicalMesh mesh(pm.layout, em);
  mesh.program(pm.phases);
  EXPECT_LT(mesh.transfer().max_abs_diff(u), 1e-9);
}

TEST(PhysicalMeshTest, LossyTransferIsSubunitary) {
  Rng rng(6);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  PhysicalMesh mesh(pm.layout, MeshErrorModel{});  // default losses on
  mesh.program(pm.phases);
  const CMat t = mesh.transfer();
  // Every singular value < 1 but fidelity (shape) preserved.
  EXPECT_LT(t.frobenius(), u.frobenius());
  EXPECT_NEAR(CMat::fidelity(u, t), 1.0, 1e-9);
}

TEST(PhysicalMeshTest, PhaseCountMismatchThrows) {
  PhysicalMesh mesh(clements_layout(4), MeshErrorModel{});
  EXPECT_THROW(mesh.program(std::vector<double>(3, 0.0)),
               std::invalid_argument);
}

TEST(PhysicalMeshTest, FabricationErrorsDegradeFidelity) {
  Rng rng(7);
  const CMat u = aspen::lina::haar_unitary(8, rng);
  const ProgrammedMesh pm = clements_decompose(u);

  MeshErrorModel dirty;
  dirty.coupler_sigma = 0.05;
  dirty.phase_sigma = 0.05;
  PhysicalMesh mesh(pm.layout, dirty);
  mesh.program(pm.phases);
  const double f = CMat::fidelity(u, mesh.transfer());
  EXPECT_LT(f, 0.9999);
  EXPECT_GT(f, 0.5);
}

TEST(PhysicalMeshTest, ErrorSeverityMonotone) {
  // Larger sigma must (statistically) hurt more; average over dies.
  Rng rng(8);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  auto mean_fid = [&](double sigma) {
    double acc = 0.0;
    for (std::uint64_t die = 0; die < 12; ++die) {
      MeshErrorModel em;
      em.coupler_sigma = sigma;
      em.phase_sigma = sigma;
      em.seed = 97 + die;
      PhysicalMesh mesh(pm.layout, em);
      mesh.program(pm.phases);
      acc += CMat::fidelity(u, mesh.transfer());
    }
    return acc / 12.0;
  };
  EXPECT_GT(mean_fid(0.01), mean_fid(0.15));
}

TEST(PhysicalMeshTest, SameSeedSameDie) {
  MeshErrorModel em;
  em.coupler_sigma = 0.05;
  em.phase_sigma = 0.05;
  em.seed = 1234;
  Rng rng(9);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  PhysicalMesh a(pm.layout, em), b(pm.layout, em);
  a.program(pm.phases);
  b.program(pm.phases);
  EXPECT_LT(a.transfer().max_abs_diff(b.transfer()), 1e-15);
}

TEST(PhysicalMeshTest, PcmQuantizationDegradesGracefully) {
  Rng rng(10);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  MeshErrorModel em;
  PhysicalMesh mesh(pm.layout, em);
  mesh.program(pm.phases);

  // Low-loss GeSe phase shifters sized for full 2*pi range.
  aspen::phot::PcmCellConfig coarse =
      aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  coarse.level_bits = 3;
  aspen::phot::PcmCellConfig fine = coarse;
  fine.level_bits = 8;

  mesh.enable_pcm(fine);
  const double f_fine = CMat::fidelity(u, mesh.transfer());
  mesh.enable_pcm(coarse);
  const double f_coarse = CMat::fidelity(u, mesh.transfer());
  EXPECT_GT(f_fine, f_coarse);
  EXPECT_GT(f_fine, 0.99);
}

TEST(PhysicalMeshTest, DriftReducesFidelityOverTime) {
  Rng rng(11);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  PhysicalMesh mesh(pm.layout, MeshErrorModel{});
  mesh.program(pm.phases);
  aspen::phot::PcmCellConfig cfg =
      aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  cfg.level_bits = 8;
  mesh.enable_pcm(cfg);
  mesh.set_drift_time(0.0);
  const double f0 = CMat::fidelity(u, mesh.transfer());
  mesh.set_drift_time(1e7);
  const double f1 = CMat::fidelity(u, mesh.transfer());
  EXPECT_LT(f1, f0);
}

TEST(PhysicalMeshTest, ThermalCrosstalkPerturbsTransfer) {
  Rng rng(12);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  MeshErrorModel em;
  em.thermal_crosstalk = 0.03;
  PhysicalMesh mesh(pm.layout, em);
  mesh.program(pm.phases);
  const double f = CMat::fidelity(u, mesh.transfer());
  EXPECT_LT(f, 0.99999);
}

TEST(PhysicalMeshTest, WavelengthDetuningRotatesCouplers) {
  Rng rng(40);
  const CMat u = aspen::lina::haar_unitary(6, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  PhysicalMesh mesh(pm.layout, MeshErrorModel{});
  mesh.program(pm.phases);
  const double f0 = CMat::fidelity(u, mesh.transfer());
  mesh.set_wavelength_detuning_nm(6.0);
  const double f6 = CMat::fidelity(u, mesh.transfer());
  mesh.set_wavelength_detuning_nm(0.0);
  const double f0b = CMat::fidelity(u, mesh.transfer());
  EXPECT_LT(f6, f0);
  EXPECT_DOUBLE_EQ(f0, f0b) << "detuning must be reversible";
}

TEST(PhysicalMeshTest, ZeroDispersionIgnoresDetuning) {
  Rng rng(41);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  MeshErrorModel em;
  em.coupler_dispersion_rad_per_nm = 0.0;
  PhysicalMesh mesh(pm.layout, em);
  mesh.program(pm.phases);
  const CMat t0 = mesh.transfer();
  mesh.set_wavelength_detuning_nm(10.0);
  EXPECT_LT(mesh.transfer().max_abs_diff(t0), 1e-15);
}

TEST(PhysicalMeshTest, NominalInsertionLossScalesWithDepth) {
  PhysicalMesh small(clements_layout(4), MeshErrorModel{});
  PhysicalMesh large(clements_layout(16), MeshErrorModel{});
  EXPECT_GT(large.nominal_insertion_loss_db(),
            small.nominal_insertion_loss_db());
}

TEST(CalibrateTest, RecoversFromFabricationErrors) {
  Rng rng(13);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  MeshErrorModel em;
  em.coupler_sigma = 0.03;
  em.phase_sigma = 0.05;
  PhysicalMesh mesh(pm.layout, em);
  mesh.program(pm.phases);
  const double before = CMat::fidelity(u, mesh.transfer());
  const auto report = calibrate(mesh, u);
  EXPECT_GT(report.final_fidelity, before);
  EXPECT_GT(report.final_fidelity, 0.999);
}

TEST(CalibrateTest, PerfectMeshStaysPerfect) {
  Rng rng(14);
  const CMat u = aspen::lina::haar_unitary(4, rng);
  const ProgrammedMesh pm = clements_decompose(u);
  MeshErrorModel em;
  em.coupler_loss_db = 0.0;
  em.ps_loss_db = 0.0;
  em.routing_loss_db_per_column = 0.0;
  PhysicalMesh mesh(pm.layout, em);
  mesh.program(pm.phases);
  const auto report = calibrate(mesh, u);
  EXPECT_NEAR(report.final_fidelity, 1.0, 1e-9);
  EXPECT_LE(report.sweeps_used, 3);
}

TEST(CalibrateTest, ShapeMismatchThrows) {
  PhysicalMesh mesh(clements_layout(4), MeshErrorModel{});
  Rng rng(15);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  EXPECT_THROW((void)calibrate(mesh, u), std::invalid_argument);
}

TEST(AnalysisTest, LayoutFactory) {
  EXPECT_EQ(make_layout(Architecture::kReck, 6).mzi_count(), 15u);
  EXPECT_EQ(make_layout(Architecture::kClements, 6).mzi_count(), 15u);
  EXPECT_EQ(make_layout(Architecture::kFldzhyan, 6).mzi_count(), 0u);
  EXPECT_TRUE(has_analytic_decomposition(Architecture::kClements));
  EXPECT_FALSE(has_analytic_decomposition(Architecture::kFldzhyan));
}

TEST(AnalysisTest, ProgramForTargetAnalyticPerfectDie) {
  Rng rng(16);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  for (auto arch : {Architecture::kReck, Architecture::kClements,
                    Architecture::kClementsSym, Architecture::kRedundant}) {
    MeshErrorModel em;
    em.coupler_loss_db = 0.0;
    em.ps_loss_db = 0.0;
    em.routing_loss_db_per_column = 0.0;
    PhysicalMesh mesh(make_layout(arch, 5), em);
    const double f = program_for_target(arch, mesh, u, /*recalibrate=*/false);
    EXPECT_NEAR(f, 1.0, 1e-8) << to_string(arch);
  }
}

TEST(AnalysisTest, FldzhyanReachesHighFidelityOnPerfectDie) {
  Rng rng(17);
  const CMat u = aspen::lina::haar_unitary(4, rng);
  MeshErrorModel em;
  em.coupler_loss_db = 0.0;
  em.ps_loss_db = 0.0;
  em.routing_loss_db_per_column = 0.0;
  // Use a redundant (2n phase layers) Fldzhyan mesh: optimization-based
  // programming converges reliably with parameter headroom.
  PhysicalMesh mesh(fldzhyan_layout(4, 8), em);
  CalibrationOptions opt;
  opt.restarts = 4;
  const double f =
      program_for_target(Architecture::kFldzhyan, mesh, u, false, opt);
  EXPECT_GT(f, 0.99);
}

TEST(AnalysisTest, RecalibrationBeatsDirectProgrammingUnderError) {
  Rng rng(18);
  const CMat u = aspen::lina::haar_unitary(5, rng);
  MeshErrorModel em;
  em.coupler_sigma = 0.05;
  em.phase_sigma = 0.05;
  em.seed = 77;
  PhysicalMesh direct(make_layout(Architecture::kClements, 5), em);
  PhysicalMesh recal(make_layout(Architecture::kClements, 5), em);
  const double f_direct =
      program_for_target(Architecture::kClements, direct, u, false);
  const double f_recal =
      program_for_target(Architecture::kClements, recal, u, true);
  EXPECT_GT(f_recal, f_direct);
}

TEST(AnalysisTest, HaarEnsembleRunsAndIsDeterministic) {
  MeshErrorModel em;
  em.coupler_sigma = 0.02;
  const auto a = haar_ensemble_fidelity(Architecture::kClements, 4, em, 3,
                                        false, /*seed=*/5);
  const auto b = haar_ensemble_fidelity(Architecture::kClements, 4, em, 3,
                                        false, /*seed=*/5);
  EXPECT_EQ(a.fidelity.count(), 3u);
  EXPECT_DOUBLE_EQ(a.fidelity.mean(), b.fidelity.mean());
}

}  // namespace
