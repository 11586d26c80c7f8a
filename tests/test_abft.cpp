// Tests for the end-to-end fault detection & recovery stack: the ABFT
// checksum math (core/abft), the checked GemmCore tile path, the
// accelerator's CRC / ERROR / watchdog MMIO surface, the checked guest
// offload workload (detect -> retry -> software fallback), and the
// recovery-aware six-outcome fault campaigns built on top of them.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/abft.hpp"
#include "core/gemm_core.hpp"
#include "lina/random.hpp"
#include "noiseless_reference.hpp"
#include "sysim/crc32.hpp"
#include "sysim/fault.hpp"
#include "sysim/system.hpp"
#include "sysim/workloads.hpp"

namespace {

using namespace aspen::sys;
using aspen::core::abft_augment;
using aspen::core::abft_check;
using aspen::core::AbftReport;
using aspen::core::GemmConfig;
using aspen::core::GemmCore;
using aspen::core::kAbftRows;
using aspen::lina::CMat;
using aspen::lina::cplx;
using aspen::testing::bits;
using aspen::testing::complex_noiseless_reference;
using aspen::testing::real_tile;

// --------------------------------------------------------- ABFT checksums

CMat random_real_tile(std::size_t n, double lim, std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  CMat w(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      w(r, c) = cplx{rng.uniform(-lim, lim), 0.0};
  return w;
}

/// A block whose checksum rows are exact — what a fault-free augmented
/// multiply produces (up to fp noise).
CMat consistent_block(std::size_t n, std::size_t m, std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  CMat y(n + kAbftRows, m);
  for (std::size_t c = 0; c < m; ++c) {
    cplx sum{0.0, 0.0};
    cplx wsum{0.0, 0.0};
    for (std::size_t r = 0; r < n; ++r) {
      y(r, c) = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      sum += y(r, c);
      wsum += static_cast<double>(r + 1) * y(r, c);
    }
    y(n, c) = sum;
    y(n + 1, c) = wsum;
  }
  return y;
}

TEST(AbftTest, AugmentAppendsChecksumRowsAndZeroColumns) {
  const std::size_t n = 4;
  const CMat w = random_real_tile(n, 1.0, 1);
  const CMat a = abft_augment(w);
  ASSERT_EQ(a.rows(), n + kAbftRows);
  ASSERT_EQ(a.cols(), n + kAbftRows);
  for (std::size_t c = 0; c < n; ++c) {
    cplx sum{0.0, 0.0};
    cplx wsum{0.0, 0.0};
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(a(r, c), w(r, c));
      sum += w(r, c);
      wsum += static_cast<double>(r + 1) * w(r, c);
    }
    EXPECT_NEAR(std::abs(a(n, c) - sum), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(a(n + 1, c) - wsum), 0.0, 1e-12);
  }
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = n; c < a.cols(); ++c)
      EXPECT_EQ(a(r, c), (cplx{0.0, 0.0})) << "padding columns must be zero";
}

TEST(AbftTest, AugmentRejectsNonSquare) {
  CMat w(3, 4);
  EXPECT_THROW((void)abft_augment(w), std::invalid_argument);
}

TEST(AbftTest, CleanBlockPassesAllColumns) {
  CMat y = consistent_block(6, 5, 2);
  const AbftReport rep = abft_check(y, 1e-6);
  EXPECT_EQ(rep.counts.columns_checked, 5u);
  EXPECT_EQ(rep.counts.detected, 0u);
  EXPECT_EQ(rep.counts.corrected, 0u);
  EXPECT_EQ(rep.counts.uncorrectable, 0u);
  EXPECT_LT(rep.max_residual, 1e-9);
}

TEST(AbftTest, SingleDataErrorLocatedAndRepaired) {
  const std::size_t n = 6;
  CMat y = consistent_block(n, 4, 3);
  const CMat clean = y;
  y(2, 1) += cplx{0.25, -0.1};
  const AbftReport rep = abft_check(y, 1e-6);
  EXPECT_EQ(rep.counts.detected, 1u);
  EXPECT_EQ(rep.counts.corrected, 1u);
  EXPECT_EQ(rep.counts.uncorrectable, 0u);
  for (std::size_t r = 0; r < y.rows(); ++r)
    for (std::size_t c = 0; c < y.cols(); ++c)
      EXPECT_NEAR(std::abs(y(r, c) - clean(r, c)), 0.0, 1e-9)
          << "repair must restore the exact block (" << r << "," << c << ")";
}

TEST(AbftTest, ChecksumLaneErrorsRepairedWithoutTouchingData) {
  const std::size_t n = 6;
  // Error confined to the plain checksum lane: d2 closes, d1 does not.
  CMat y = consistent_block(n, 3, 4);
  CMat clean = y;
  y(n, 0) += cplx{0.3, 0.0};
  AbftReport rep = abft_check(y, 1e-6);
  EXPECT_EQ(rep.counts.detected, 1u);
  EXPECT_EQ(rep.counts.corrected, 1u);
  EXPECT_NEAR(std::abs(y(n, 0) - clean(n, 0)), 0.0, 1e-9);

  // Error confined to the weighted checksum lane: d1 closes, d2 does not.
  y = consistent_block(n, 3, 5);
  clean = y;
  y(n + 1, 2) += cplx{-0.4, 0.2};
  rep = abft_check(y, 1e-6);
  EXPECT_EQ(rep.counts.detected, 1u);
  EXPECT_EQ(rep.counts.corrected, 1u);
  EXPECT_NEAR(std::abs(y(n + 1, 2) - clean(n + 1, 2)), 0.0, 1e-9);
}

TEST(AbftTest, DoubleErrorIsUncorrectable) {
  const std::size_t n = 6;
  CMat y = consistent_block(n, 2, 6);
  // Two data-row errors in one column: the locate ratio is inconsistent
  // with a single-element hypothesis, so the column must be flagged, not
  // "repaired" into a wrong value.
  y(0, 0) += cplx{0.2, 0.0};
  y(3, 0) += cplx{0.3, 0.0};
  const AbftReport rep = abft_check(y, 1e-6);
  EXPECT_EQ(rep.counts.detected, 1u);
  EXPECT_EQ(rep.counts.corrected, 0u);
  EXPECT_EQ(rep.counts.uncorrectable, 1u);
}

// ------------------------------------------------------ GemmCore checked

GemmConfig gemm_cfg(bool abft) {
  GemmConfig cfg;
  cfg.mvm.ports = 8;
  cfg.abft.enabled = abft;
  return cfg;
}

TEST(GemmCoreAbftTest, NoiselessCheckedPathMatchesUnprotected) {
  const std::size_t n = 8, m = 4;
  const CMat w = random_real_tile(n, 0.3, 7);
  CMat x(n, m);
  aspen::lina::Rng rng(8);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c)
      x(r, c) = cplx{rng.uniform(-1.0, 1.0), 0.0};

  GemmCore checked(gemm_cfg(true));
  GemmCore plain(gemm_cfg(false));
  EXPECT_EQ(checked.data_ports(), n) << "callers keep the N x N view";
  checked.set_weights(w);
  plain.set_weights(w);

  CMat yc, yp;
  checked.multiply_noiseless(x, yc);
  plain.multiply_noiseless(x, yp);
  ASSERT_EQ(yc.rows(), n);
  ASSERT_EQ(yc.cols(), m);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c)
      EXPECT_NEAR(std::abs(yc(r, c) - yp(r, c)), 0.0, 1e-6);
  EXPECT_EQ(checked.abft_counters().columns_checked, m);
  EXPECT_EQ(checked.abft_counters().detected, 0u);
  EXPECT_EQ(checked.last_abft().counts.detected, 0u);
}

TEST(GemmCoreAbftTest, PhaseUpsetDetectabilityFollowsMeshSide) {
  const std::size_t n = 8, m = 4;
  // One perturbed phase per run; returns {output changed, ABFT detected}.
  const auto probe = [&](bool output_side) {
    GemmCore core(gemm_cfg(true));
    core.set_weights(random_real_tile(n, 0.3, 9));
    CMat x(n, m);
    aspen::lina::Rng rng(10);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < m; ++c)
        x(r, c) = cplx{rng.uniform(-1.0, 1.0), 0.0};
    CMat clean;
    core.multiply_noiseless(x, clean);
    // Phase indices run mesh V (input side) first, then mesh U; the last
    // indices sit in U's output layers.
    const std::size_t idx =
        output_side ? core.engine().phase_state_size() - 1 : 0;
    core.engine().perturb_phase(idx, 0.8);
    CMat y;
    core.multiply_noiseless(x, y);
    double dmax = 0.0;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < m; ++c)
        dmax = std::max(dmax, std::abs(y(r, c) - clean(r, c)));
    const auto& counts = core.last_abft().counts;
    EXPECT_EQ(counts.detected, counts.corrected + counts.uncorrectable);
    return std::make_pair(dmax > 1e-6, counts.detected > 0);
  };

  // Output-side (mesh U) upset mixes the rows of T = U S V^dagger, so
  // the row-checksum identities break on readout. A single output-layer
  // phase error is a single-row error per column — exactly the case ABFT
  // locates and repairs — so the returned data block is already clean.
  const auto [u_corrupts, u_detected] = probe(true);
  EXPECT_FALSE(u_corrupts) << "repaired in place, output must match clean";
  EXPECT_TRUE(u_detected);

  // Input-side (mesh V) upset yields T' = U S V'^dagger: the checksum
  // rows ride the same U S factor as the data rows, so the corrupted
  // output stays checksum-CONSISTENT. This is the structural blind spot
  // of row-checksum ABFT — the silent-corruption surface the campaign's
  // SDC accounting exists to quantify.
  const auto [v_corrupts, v_detected] = probe(false);
  EXPECT_TRUE(v_corrupts);
  EXPECT_FALSE(v_detected);
}

// The augmented (N+2)-row tile the ABFT engine sees: the data rows of x
// plus zero checksum input rows.
CMat pad_checksum_rows(const CMat& x) {
  CMat p(x.rows() + kAbftRows, x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c) p(r, c) = x(r, c);
  return p;
}

TEST(GemmCoreAbftTest, RealNoiselessKernelMatchesComplexFormOnPaddedTile) {
  const std::size_t n = 8;
  for (const bool pcm : {false, true}) {
    // The thermo-optic die is error-free, so its checksum identities
    // close and the upset below is located and repaired; drifted PCM
    // weights miss the default tolerance, so its columns are detected
    // and left unrepaired.
    GemmConfig cfg = gemm_cfg(true);
    if (pcm) {
      cfg.mvm.errors.coupler_sigma = 0.02;
      cfg.mvm.errors.phase_sigma = 0.02;
      cfg.mvm.weights = aspen::core::WeightTechnology::kPcm;
      cfg.mvm.pcm_drift_time_s = 1e4;
    }
    GemmCore core(cfg);
    ASSERT_EQ(core.engine().config().ports, n + kAbftRows);
    aspen::lina::Rng rng(pcm ? 301 : 300);
    const CMat w1 = random_real_tile(n, 1.0, pcm ? 303 : 302);
    const CMat w2 = random_real_tile(n, 1.0, pcm ? 305 : 304);
    std::size_t repaired = 0;  // data entries the checksum repair changed
    const auto sweep = [&](const char* state) {
      for (const std::size_t m : {1, 2, 7, 8, 9, 64}) {
        SCOPED_TRACE(std::string(pcm ? "pcm, " : "thermo, ") + state + ", " +
                     std::to_string(m) + " cols");
        const CMat x = aspen::lina::random_real(n, m, rng, -1.0, 1.0);
        const CMat padded = pad_checksum_rows(x);
        CMat ref = complex_noiseless_reference(core.engine(), padded);

        // The engine kernel on the padded tile, every row.
        std::vector<double> re, im;
        core.engine().multiply_noiseless_batch_into(real_tile(padded), m, re,
                                                    im);
        ASSERT_EQ(re.size(), ref.raw().size());
        for (std::size_t i = 0; i < re.size(); ++i) {
          EXPECT_EQ(bits(re[i]), bits(ref.raw()[i].real())) << i;
          EXPECT_EQ(bits(im[i]), bits(ref.raw()[i].imag())) << i;
        }

        // The checked tile: the same verify/repair on the same values,
        // then the data rows.
        const AbftReport ref_report = abft_check(ref, cfg.abft.tolerance);
        for (std::size_t i = 0; i < n * m; ++i)
          repaired += cplx{re[i], im[i]} != ref.raw()[i];
        core.multiply_noiseless(real_tile(x), m, re, im);
        ASSERT_EQ(re.size(), n * m);
        ASSERT_EQ(im.size(), n * m);
        for (std::size_t i = 0; i < re.size(); ++i) {
          EXPECT_EQ(bits(re[i]), bits(ref.raw()[i].real())) << i;
          EXPECT_EQ(bits(im[i]), bits(ref.raw()[i].imag())) << i;
        }
        const auto& got = core.last_abft().counts;
        EXPECT_EQ(got.columns_checked, ref_report.counts.columns_checked);
        EXPECT_EQ(got.detected, ref_report.counts.detected);
        EXPECT_EQ(got.corrected, ref_report.counts.corrected);
        EXPECT_EQ(got.uncorrectable, ref_report.counts.uncorrectable);
      }
    };
    core.set_weights(w1);
    sweep("miss");
    core.set_weights(w2);
    core.set_weights(w1);
    ASSERT_GT(core.engine().program_memo_stats().hits, 0u);
    sweep("memo hit");
    // An output-side upset that lands on a data row: on the error-free
    // die ABFT locates and repairs it, on both sides.
    core.engine().perturb_phase(core.engine().phase_state_size() - 3, 0.8);
    repaired = 0;
    sweep("phase upset");
    if (!pcm) {
      EXPECT_GT(repaired, 0u) << "the sweep must cover data repairs";
    }
    core.set_weights(CMat(n, n));
    sweep("zero weights");
  }
}

// -------------------------------------------- accelerator error surface

using PA = PhotonicAccelerator;

AcceleratorConfig accel_cfg(bool abft = false) {
  AcceleratorConfig cfg;
  cfg.gemm.mvm.ports = 8;
  cfg.max_cols = 16;
  cfg.gemm.abft.enabled = abft;
  return cfg;
}

std::vector<std::int16_t> random_fixed(std::size_t count, double lim,
                                       std::uint64_t seed) {
  aspen::lina::Rng rng(seed);
  std::vector<std::int16_t> v(count);
  for (auto& x : v) x = PA::to_fixed(rng.uniform(-lim, lim));
  return v;
}

void write_spm(PA& accel, std::uint32_t base,
               const std::vector<std::int16_t>& v) {
  for (std::size_t i = 0; i < v.size(); ++i)
    accel.write(base + static_cast<std::uint32_t>(2 * i),
                static_cast<std::uint16_t>(v[i]), 2);
}

void run_to_idle(PA& accel) {
  for (int i = 0; i < 1000000 && accel.busy(); ++i) accel.tick();
  ASSERT_FALSE(accel.busy());
}

TEST(AcceleratorFaultTest, CrcMismatchAbortsLoadAndLatchesError) {
  PA accel(accel_cfg());
  const auto a = random_fixed(64, 0.9, 11);
  write_spm(accel, PA::kSpmWBase, a);
  // Deliberately wrong expectation: flip one bit of the true CRC.
  accel.write(PA::kRegCrcW, crc32(a.data(), a.size() * 2) ^ 1u, 4);
  accel.write(PA::kRegCtrl, PA::kCtrlLoadWeights | PA::kCtrlCrcW, 4);
  run_to_idle(accel);

  // DONE still raises (the host handshake must not wedge) alongside the
  // latched ERROR, and ERR names the cause.
  const std::uint32_t status = accel.read(PA::kRegStatus, 4);
  EXPECT_TRUE(status & PA::kStatusDone);
  EXPECT_TRUE(status & PA::kStatusError);
  EXPECT_EQ(accel.read(PA::kRegErr, 4), PA::kErrCrcW);

  // The latch persists across reads and across a DONE-only clear...
  EXPECT_TRUE(accel.read(PA::kRegStatus, 4) & PA::kStatusError);
  accel.write(PA::kRegStatus, PA::kStatusDone, 4);
  const std::uint32_t after_done_clear = accel.read(PA::kRegStatus, 4);
  EXPECT_FALSE(after_done_clear & PA::kStatusDone);
  EXPECT_TRUE(after_done_clear & PA::kStatusError);

  // ...and clears only on the documented ERROR write (ERR clears too).
  accel.write(PA::kRegStatus, PA::kStatusError, 4);
  EXPECT_FALSE(accel.read(PA::kRegStatus, 4) & PA::kStatusError);
  EXPECT_EQ(accel.read(PA::kRegErr, 4), 0u);
}

TEST(AcceleratorFaultTest, MatchingCrcsRunCleanToGolden) {
  PA accel(accel_cfg());
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 12);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 13);
  write_spm(accel, PA::kSpmWBase, a);
  write_spm(accel, PA::kSpmXBase, x);
  accel.write(PA::kRegCols, static_cast<std::uint32_t>(wl.m), 4);
  accel.write(PA::kRegCrcW, crc32(a.data(), a.size() * 2), 4);
  accel.write(PA::kRegCrcX, crc32(x.data(), x.size() * 2), 4);
  accel.write(PA::kRegCtrl,
              PA::kCtrlStart | PA::kCtrlLoadWeights | PA::kCtrlCrcW |
                  PA::kCtrlCrcX,
              4);
  run_to_idle(accel);

  EXPECT_FALSE(accel.error());
  EXPECT_EQ(accel.read(PA::kRegErr, 4), 0u);
  const auto golden = golden_gemm(wl, a, x);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto got = static_cast<std::int16_t>(
        accel.read(PA::kSpmYBase + static_cast<std::uint32_t>(2 * i), 2));
    max_err = std::max(max_err, std::abs(got - golden[i]));
  }
  EXPECT_LE(max_err, 4);
}

TEST(AcceleratorFaultTest, StartWritesFixedPointOfComplexReference) {
  const std::size_t n = 8;
  for (const bool abft : {false, true}) {
    PA accel(accel_cfg(abft));
    const auto a = random_fixed(n * n, 0.9, 14);
    write_spm(accel, PA::kSpmWBase, a);
    accel.write(PA::kRegCtrl, PA::kCtrlLoadWeights, 4);
    run_to_idle(accel);
    for (const std::size_t m : {1, 3, 8, 9, 16}) {
      for (const bool upset : {false, true}) {
        SCOPED_TRACE(std::string(abft ? "abft, " : "plain, ") +
                     std::to_string(m) + " cols" + (upset ? ", upset" : ""));
        if (upset) accel.inject_phase_fault(accel.phase_state_size() - 3, 0.8);
        const auto x = random_fixed(n * m, 0.9, 15 + m);
        write_spm(accel, PA::kSpmXBase, x);
        accel.write(PA::kRegCols, static_cast<std::uint32_t>(m), 4);
        accel.write(PA::kRegCtrl, PA::kCtrlStart, 4);
        run_to_idle(accel);

        // SPM_X is column-major; the reference tile is rows x columns.
        CMat xm(n, m);
        for (std::size_t c = 0; c < m; ++c)
          for (std::size_t r = 0; r < n; ++r)
            xm(r, c) = cplx{PA::from_fixed(x[c * n + r]), 0.0};
        CMat ref = complex_noiseless_reference(
            accel.gemm().engine(), abft ? pad_checksum_rows(xm) : xm);
        if (abft) (void)abft_check(ref, accel.config().gemm.abft.tolerance);
        for (std::size_t c = 0; c < m; ++c)
          for (std::size_t r = 0; r < n; ++r) {
            const auto got = static_cast<std::int16_t>(accel.read(
                PA::kSpmYBase + static_cast<std::uint32_t>(2 * (c * n + r)),
                2));
            EXPECT_EQ(got, PA::to_fixed(ref(r, c).real()))
                << "row " << r << " col " << c;
          }
      }
    }
  }
}

TEST(Crc32Test, IeeeCheckValue) {
  // The published check value of CRC-32 (IEEE 802.3) over "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(AcceleratorFaultTest, UncheckedStartIgnoresWrongCrcExpectations) {
  // Wrong CRC_W / CRC_X values with CHECK_CRC_W / CHECK_CRC_X clear: no
  // comparison runs, so nothing latches and the output is the one a
  // checked run with correct expectations produces.
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 16);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 17);
  const auto run = [&](std::uint32_t check, std::uint32_t crc_flip) {
    auto accel = std::make_unique<PA>(accel_cfg());
    write_spm(*accel, PA::kSpmWBase, a);
    write_spm(*accel, PA::kSpmXBase, x);
    accel->write(PA::kRegCols, static_cast<std::uint32_t>(wl.m), 4);
    accel->write(PA::kRegCrcW, crc32(a.data(), a.size() * 2) ^ crc_flip, 4);
    accel->write(PA::kRegCrcX, crc32(x.data(), x.size() * 2) ^ crc_flip, 4);
    accel->write(PA::kRegCtrl,
                 PA::kCtrlStart | PA::kCtrlLoadWeights | check, 4);
    run_to_idle(*accel);
    return accel;
  };
  const auto unchecked = run(0, 1u);
  const auto checked = run(PA::kCtrlCrcW | PA::kCtrlCrcX, 0);
  EXPECT_FALSE(unchecked->error());
  EXPECT_EQ(unchecked->read(PA::kRegErr, 4), 0u);
  ASSERT_FALSE(checked->error());

  const auto golden = golden_gemm(wl, a, x);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const std::uint32_t off = PA::kSpmYBase + static_cast<std::uint32_t>(2 * i);
    EXPECT_EQ(unchecked->read(off, 2), checked->read(off, 2)) << "element " << i;
    const auto got = static_cast<std::int16_t>(unchecked->read(off, 2));
    max_err = std::max(max_err, std::abs(got - golden[i]));
  }
  EXPECT_LE(max_err, 4);
}

TEST(AcceleratorFaultTest, ErrorLatchDoesNotBlockSubsequentOps) {
  PA accel(accel_cfg());
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 14);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 15);
  write_spm(accel, PA::kSpmWBase, a);
  accel.write(PA::kRegCrcW, crc32(a.data(), a.size() * 2) ^ 1u, 4);
  accel.write(PA::kRegCtrl, PA::kCtrlLoadWeights | PA::kCtrlCrcW, 4);
  run_to_idle(accel);
  ASSERT_TRUE(accel.error());

  // Retry with the correct expectation while ERROR is still latched: the
  // operation must run and produce the right answer (a wedged device
  // would defeat the guest's retry loop).
  write_spm(accel, PA::kSpmXBase, x);
  accel.write(PA::kRegCols, static_cast<std::uint32_t>(wl.m), 4);
  accel.write(PA::kRegCrcW, crc32(a.data(), a.size() * 2), 4);
  accel.write(PA::kRegCtrl,
              PA::kCtrlStart | PA::kCtrlLoadWeights | PA::kCtrlCrcW, 4);
  run_to_idle(accel);

  EXPECT_TRUE(accel.error()) << "the stale latch persists until W1C";
  const auto golden = golden_gemm(wl, a, x);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto got = static_cast<std::int16_t>(
        accel.read(PA::kSpmYBase + static_cast<std::uint32_t>(2 * i), 2));
    max_err = std::max(max_err, std::abs(got - golden[i]));
  }
  EXPECT_LE(max_err, 4);
}

TEST(AcceleratorFaultTest, OnDeviceAbftCountersExposedOverMmio) {
  PA accel(accel_cfg(true));
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  write_spm(accel, PA::kSpmWBase, random_fixed(wl.n * wl.n, 0.9, 16));
  write_spm(accel, PA::kSpmXBase, random_fixed(wl.n * wl.m, 0.9, 17));
  accel.write(PA::kRegCols, static_cast<std::uint32_t>(wl.m), 4);
  accel.write(PA::kRegCtrl, PA::kCtrlStart | PA::kCtrlLoadWeights, 4);
  run_to_idle(accel);
  // Deterministic fault-free tile: every column checked, none flagged.
  EXPECT_FALSE(accel.error());
  EXPECT_EQ(accel.read(PA::kRegAbftDetected, 4), 0u);
  EXPECT_EQ(accel.read(PA::kRegAbftCorrected, 4), 0u);
  EXPECT_EQ(accel.gemm().abft_counters().columns_checked, wl.m);
}

TEST(AcceleratorFaultTest, WatchdogFiresAndAlwaysRaisesIrq) {
  PA accel(accel_cfg());
  accel.write(PA::kRegWdog, 50, 4);
  EXPECT_TRUE(accel.watchdog_armed());
  EXPECT_EQ(accel.read(PA::kRegWdog, 4), 50u);
  for (int i = 0; i < 50; ++i) accel.tick();
  EXPECT_TRUE(accel.error());
  EXPECT_EQ(accel.read(PA::kRegErr, 4), PA::kErrWatchdog);
  EXPECT_TRUE(accel.irq_pending())
      << "watchdog expiry must wake a WFI'd host even with IRQ_EN clear";
  EXPECT_EQ(accel.read(PA::kRegWdog, 4), 0u);
  EXPECT_FALSE(accel.watchdog_armed());
}

TEST(AcceleratorFaultTest, WatchdogDisarmedByCompletionAndZeroWrite) {
  PA accel(accel_cfg());
  write_spm(accel, PA::kSpmWBase, random_fixed(64, 0.9, 18));
  accel.write(PA::kRegWdog, 1u << 20, 4);
  accel.write(PA::kRegCtrl, PA::kCtrlLoadWeights, 4);
  run_to_idle(accel);
  EXPECT_FALSE(accel.watchdog_armed()) << "completion disarms the deadline";
  EXPECT_FALSE(accel.error());

  accel.write(PA::kRegWdog, 1000, 4);
  ASSERT_TRUE(accel.watchdog_armed());
  accel.write(PA::kRegWdog, 0, 4);
  EXPECT_FALSE(accel.watchdog_armed());
  for (int i = 0; i < 2000; ++i) accel.tick();
  EXPECT_FALSE(accel.error()) << "a disarmed watchdog never fires";
}

// ------------------------------------------- checked offload end-to-end

std::vector<std::uint8_t> bytes_of(const std::vector<std::int16_t>& v) {
  std::vector<std::uint8_t> b(v.size() * 2);
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

TEST(CheckedOffloadTest, FaultFreeRunLeavesRecoveryRecordClean) {
  SystemConfig sc;
  sc.accel = accel_cfg(true);
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  System system(sc);
  const auto a = random_fixed(wl.n * wl.n, 0.9, 21);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 22);
  stage_gemm_data_checked(system, wl, a, x);
  system.load_program(build_gemm_offload_checked(wl, sc));
  const auto result = system.run();
  EXPECT_EQ(result.halt, rv::Halt::kEcallExit);
  EXPECT_FALSE(result.timed_out);

  const GemmRecoveryRecord rec = read_gemm_recovery(system, wl);
  EXPECT_EQ(rec.detected, 0u);
  EXPECT_EQ(rec.corrected, 0u);
  EXPECT_EQ(rec.retried, 0u);
  EXPECT_EQ(rec.fell_back, 0u);

  const auto golden = golden_gemm(wl, a, x);
  const auto got = read_gemm_result(system, wl);
  int max_err = 0;
  for (std::size_t i = 0; i < golden.size(); ++i)
    max_err = std::max(max_err, std::abs(got[i] - golden[i]));
  EXPECT_LE(max_err, 4);
}

TEST(CheckedOffloadTest, PermanentSpmFaultExhaustsRetriesAndFallsBack) {
  SystemConfig sc;
  sc.accel = accel_cfg(true);
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  System system(sc);
  auto a = random_fixed(wl.n * wl.n, 0.9, 23);
  a[1] = 0;  // guarantees the stuck-at-1 bit below actually corrupts
  const auto x = random_fixed(wl.n * wl.m, 0.9, 24);
  stage_gemm_data_checked(system, wl, a, x);
  system.load_program(build_gemm_offload_checked(wl, sc));
  // Permanent fault in the weight SPM: every copy-in re-lands on the
  // stuck bit, so every CRC_W check fails and every retry is futile.
  system.pe(0).spm_w().set_stuck_bit(2, 6, true);

  const auto result = system.run();
  EXPECT_EQ(result.halt, rv::Halt::kEcallExit);
  EXPECT_FALSE(result.timed_out);

  const GemmRecoveryRecord rec = read_gemm_recovery(system, wl);
  EXPECT_EQ(rec.detected, wl.max_retries + 1)
      << "initial attempt plus every retry detects the stuck tile";
  EXPECT_EQ(rec.retried, wl.max_retries);
  EXPECT_EQ(rec.fell_back, 1u);

  // The software fallback reads A/X from DRAM, so its output is the
  // exact scalar golden — byte for byte, not merely within tolerance.
  EXPECT_EQ(read_gemm_result(system, wl), golden_gemm(wl, a, x));
}

// -------------------------------------------- recovery-aware campaigns

FaultCampaign::SystemFactory checked_factory(const SystemConfig& sc,
                                             const GemmWorkload& wl,
                                             std::vector<std::int16_t> a,
                                             std::vector<std::int16_t> x) {
  return [=]() {
    auto system = std::make_unique<System>(sc);
    stage_gemm_data_checked(*system, wl, a, x);
    system->load_program(build_gemm_offload_checked(wl, sc));
    return system;
  };
}

FaultCampaign::OutputReader result_reader(const GemmWorkload& wl) {
  return [wl](System& s) { return bytes_of(read_gemm_result(s, wl)); };
}

/// Programmable phases of the platform's photonic fault surface.
std::size_t campaign_phase_count(const SystemConfig& sc) {
  return PhotonicAccelerator(sc.accel).phase_state_size();
}

FaultCampaign make_recovery_campaign(const SystemConfig& sc,
                                     const GemmWorkload& wl,
                                     const std::vector<std::int16_t>& a,
                                     const std::vector<std::int16_t>& x) {
  FaultCampaign campaign(checked_factory(sc, wl, a, x), result_reader(wl),
                         800000);
  campaign.set_recovery([wl](System& s) { return read_gemm_recovery(s, wl); },
                        bytes_of(golden_gemm(wl, a, x)));
  return campaign;
}

TEST(RecoveryCampaignTest, StuckAtDatapathCoverageAtLeastNinetyPercent) {
  SystemConfig sc;
  sc.accel = accel_cfg(true);
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 31);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 32);
  FaultCampaign campaign = make_recovery_campaign(sc, wl, a, x);
  ASSERT_TRUE(campaign.recovery_enabled());

  aspen::lina::Rng rng(33);
  std::vector<FaultSpec> specs;
  for (const FaultTarget target :
       {FaultTarget::kAccelSpmW, FaultTarget::kAccelSpmX})
    for (const FaultModel model :
         {FaultModel::kStuckAt1, FaultModel::kStuckAt0}) {
      const auto batch = campaign.sample_specs(target, model, 10, rng);
      specs.insert(specs.end(), batch.begin(), batch.end());
    }
  const auto outcomes = campaign.run_trials(specs);
  const CampaignResult res = histogram_of(outcomes);
  EXPECT_EQ(res.total, 40);
  // The acceptance bar: stuck-at faults in the accelerator datapath that
  // corrupt anything must be caught by CRC/ABFT/watchdog >= 90% of the
  // time. Pre-consumption faults fail the CRC on every attempt and end in
  // the software fallback; post-consumption faults are masked.
  EXPECT_GE(res.detection_coverage(), 0.9);
  EXPECT_LE(res.sdc_rate(), 0.1);
}

TEST(RecoveryCampaignTest, TransientFaultsRecoverViaRetry) {
  SystemConfig sc;
  sc.accel = accel_cfg(true);
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 41);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 42);
  FaultCampaign campaign = make_recovery_campaign(sc, wl, a, x);

  aspen::lina::Rng rng(43);
  std::vector<FaultSpec> specs =
      campaign.sample_specs(FaultTarget::kAccelSpmW,
                            FaultModel::kTransientFlip, 12, rng);
  // Phase upsets restricted to mesh U's output layers — the band the
  // row-checksum identities actually cover (input-side upsets alias into
  // checksum-consistent outputs; see PhaseUpsetDetectabilityFollowsMeshSide
  // and the blind-spot trial below).
  const auto phases =
      static_cast<std::uint32_t>(campaign_phase_count(sc));
  const auto phase = campaign.sample_specs(FaultTarget::kAccelPhase,
                                           FaultModel::kTransientFlip, 12,
                                           rng, phases - 20, phases - 1);
  specs.insert(specs.end(), phase.begin(), phase.end());
  const CampaignResult res = histogram_of(campaign.run_trials(specs));
  EXPECT_EQ(res.total, 24);
  // Transient upsets are repairable: the retry re-copies the tile from
  // DRAM (flips) or reprograms the mesh (phase upsets), so detected
  // trials should overwhelmingly end corrected, not fallen-back.
  EXPECT_GE(res.detection_coverage(), 0.9);
}

TEST(RecoveryCampaignTest, PhaseBlindSpotIsAccountedAsSdc) {
  SystemConfig sc;
  sc.accel = accel_cfg(true);
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 71);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 72);
  FaultCampaign campaign = make_recovery_campaign(sc, wl, a, x);
  const std::uint64_t mid = campaign.golden_cycles() / 2;
  const auto phases = campaign_phase_count(sc);

  // Output-mesh upset after programming: ABFT flags the readout, the
  // ERROR latch fires, and the retry's reprogram erases the upset — the
  // canonical Detected+corrected trajectory.
  FaultSpec detectable;
  detectable.target = FaultTarget::kAccelPhase;
  detectable.model = FaultModel::kTransientFlip;
  detectable.cycle = mid;
  detectable.index = static_cast<std::uint32_t>(phases - 1);
  detectable.phase_delta_rad = 0.8;
  EXPECT_EQ(campaign.run_one(detectable), Outcome::kDetectedCorrected);

  // Input-mesh upset: the corrupted output is checksum-consistent, so no
  // detector fires and the verdict must be an honest SDC — the residual
  // surface the campaign's sdc_rate() reports.
  FaultSpec blind = detectable;
  blind.index = 0;
  EXPECT_EQ(campaign.run_one(blind), Outcome::kSdc);
}

TEST(RecoveryCampaignTest, RecoveryOffKeepsLegacyFourOutcomeTaxonomy) {
  SystemConfig sc;
  sc.accel = accel_cfg(true);
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 51);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 52);
  // Same checked platform, but no recovery reader: classification must
  // stay the legacy four-outcome behavior (the ABFT-off compatibility
  // contract extends to recovery-off campaigns).
  FaultCampaign campaign(checked_factory(sc, wl, a, x), result_reader(wl),
                         800000);
  ASSERT_FALSE(campaign.recovery_enabled());
  aspen::lina::Rng rng(53);
  const auto res = campaign.run_campaign(FaultTarget::kAccelSpmW,
                                         FaultModel::kStuckAt1, 10, rng);
  EXPECT_EQ(res.total, 10);
  EXPECT_EQ(res.counts.count(Outcome::kDetectedCorrected), 0u);
  EXPECT_EQ(res.counts.count(Outcome::kDetectedRecovered), 0u);
}

TEST(RecoveryCampaignTest, VerdictsBitIdenticalAcrossCpuTiers) {
  GemmWorkload wl;
  wl.n = 8;
  wl.m = 4;
  const auto a = random_fixed(wl.n * wl.n, 0.9, 61);
  const auto x = random_fixed(wl.n * wl.m, 0.9, 62);

  // Event-driven runs execute bursts through the block tier; per-cycle
  // ticking runs every fast-path instruction through step().
  const auto run_tier = [&](bool legacy_decode, bool event_driven) {
    SystemConfig sc;
    sc.accel = accel_cfg(true);
    sc.cpu.legacy_decode = legacy_decode;
    sc.event_driven = event_driven;
    FaultCampaign campaign = make_recovery_campaign(sc, wl, a, x);
    // Spec streams are drawn serially from a fixed seed, so every tier
    // samples the identical trial list.
    aspen::lina::Rng rng(63);
    auto specs = campaign.sample_specs(FaultTarget::kAccelSpmW,
                                       FaultModel::kStuckAt1, 8, rng);
    const auto flips = campaign.sample_specs(
        FaultTarget::kCpuRegfile, FaultModel::kTransientFlip, 8, rng);
    specs.insert(specs.end(), flips.begin(), flips.end());
    return campaign.run_trials(specs);
  };

  const auto block = run_tier(false, true);
  const auto step = run_tier(false, false);
  const auto legacy = run_tier(true, true);
  EXPECT_EQ(block, step) << "six-outcome verdicts must not depend on tier";
  EXPECT_EQ(block, legacy);
}

}  // namespace
