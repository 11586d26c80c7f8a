// Mesh micro-benchmarks: the hot loops behind every experiment harness —
// single-phase set_phase + transfer (the column-factored cache's O(N^2)
// incremental path vs the from-scratch rebuild) and in-situ calibration
// at 8/16/32 ports. Standalone (chrono-based, no external benchmark
// dependency) so it always builds; emits the rows both as a table and as
// machine-readable BENCH_mesh.json for CI artifacts.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "lina/random.hpp"
#include "mesh/calibrate.hpp"
#include "mesh/decompose.hpp"
#include "mesh/physical_mesh.hpp"

namespace {

using namespace aspen;
using Clock = std::chrono::steady_clock;

std::vector<bench::BenchRow> rows;

/// Time fn() and record ns per call. Repetitions are sized so the timed
/// region lasts about `target_s`; smoke mode shrinks that to a sanity
/// check.
template <class F>
double record(const char* name, int ports, F&& fn, double target_s = 0.2) {
  fn();  // warm up (and populate caches)
  const auto probe0 = Clock::now();
  fn();
  const double once =
      std::chrono::duration<double>(Clock::now() - probe0).count();
  const double budget = bench::smoke_mode() ? 0.01 : target_s;
  int reps = once > 0.0 ? static_cast<int>(budget / once) : 1000;
  if (reps < 1) reps = 1;
  if (reps > 1000000) reps = 1000000;
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const double total =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double ns = total / reps * 1e9;
  std::printf("%-34s ports=%-3d %14.1f ns/op  (%d reps)\n", name, ports, ns,
              reps);
  rows.push_back({name, ns, ports});
  return ns;
}

void bench_transfer(std::size_t n) {
  lina::Rng rng(100 + n);
  const auto pm = mesh::clements_decompose(lina::haar_unitary(n, rng));
  mesh::MeshErrorModel em;
  em.coupler_sigma = 0.02;
  mesh::PhysicalMesh mesh(pm.layout, em);
  mesh.program(pm.phases);
  (void)mesh.transfer();  // build the cache once

  // Incremental path: one phase nudge -> one column rebuild + rank-one
  // updates against the cached prefix/suffix products.
  std::size_t slot = 0;
  double bump = 1e-3;
  record("set_phase_transfer_incremental", static_cast<int>(n), [&] {
    mesh.set_phase(slot, mesh.phase(slot) + bump);
    (void)mesh.transfer();
    slot = (slot + 1) % mesh.phase_count();
    bump = -bump;
  });

  // Reference: the from-scratch O(columns * N^2) evaluation.
  record("transfer_from_scratch", static_cast<int>(n),
         [&] { (void)mesh.transfer_uncached(); });
}

void bench_calibrate(std::size_t n) {
  lina::Rng rng(900 + n);
  const lina::CMat target = lina::haar_unitary(n, rng);
  const auto pm = mesh::clements_decompose(target);
  mesh::MeshErrorModel em;
  em.coupler_sigma = 0.02;
  em.phase_sigma = 0.02;
  em.seed = 555;
  mesh::CalibrationOptions opt;
  if (bench::smoke_mode()) opt.max_sweeps = 2;
  record(
      "calibrate_clements", static_cast<int>(n),
      [&] {
        mesh::PhysicalMesh mesh(pm.layout, em);
        mesh.program(pm.phases);
        (void)mesh::calibrate(mesh, target, opt);
      },
      0.5);
}

}  // namespace

int main() {
  bench::header("BENCH mesh — transfer cache / calibration",
                "in-situ programming is one of the paper's core loops; "
                "this tracks its cost per PR");

  for (std::size_t n : {8, 16, 32}) bench_transfer(n);
  for (std::size_t n : {8, 16, 32}) bench_calibrate(n);

  bench::json_report("BENCH_mesh.json", rows);
  std::printf("\nwrote BENCH_mesh.json (%zu rows)\n", rows.size());
  return 0;
}
