// Photonic digit serving: an MLP 64-32-10 trained at set-up, one test
// sample per request through PhotonicBackend::forward at batch 1 on an
// 8-port engine with GeSe PCM weights. Every request programs 40 weight
// tiles, more than the engine's 8-entry programming memo holds, so the
// lina SVD and mesh decomposition run on every tile.
#include <cmath>
#include <stdexcept>

#include "lina/random.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/photonic_backend.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

using aspen::lina::CMat;
using aspen::lina::cplx;
namespace nn = aspen::nn;

std::size_t argmax(const nn::Matrix& logits) {
  std::size_t best = 0;
  for (std::size_t r = 1; r < logits.rows(); ++r)
    if (logits(r, 0) > logits(best, 0)) best = r;
  return best;
}

nn::PhotonicBackendConfig backend_config() {
  nn::PhotonicBackendConfig cfg;
  cfg.gemm.mvm.ports = 8;
  cfg.gemm.mvm.weights = aspen::core::WeightTechnology::kPcm;
  cfg.gemm.mvm.pcm = aspen::phot::pcm_config_for_two_pi(aspen::phot::make_gese());
  return cfg;
}

/// Backend totals and engine counters of one request on a fresh backend.
struct RequestCost {
  nn::BackendTotals totals;
  aspen::core::MvmCounters counters;
};

class Digits final : public Workload {
 public:
  explicit Digits(const WorkloadArgs& args) : seed_(args.seed) {}

  void setup(Spans&) override {
    aspen::lina::Rng rng(stream_seed(seed_, 0xd1));
    const nn::Dataset data = nn::make_digits(40, rng, /*noise=*/0.08);
    split_ = nn::split_dataset(data, 0.75, rng);
    mlp_ = std::make_unique<nn::Mlp>(std::vector<std::size_t>{64, 32, 10}, rng);
    mlp_->train(split_.train, /*epochs=*/80, /*lr=*/0.15, /*batch=*/25, rng);
    backend_ = std::make_unique<nn::PhotonicBackend>(backend_config());
  }

  void prepare() override {
    // Requests are single test samples. Detector and laser noise make a
    // request's logits vary from call to call, so the expected label is
    // recorded only for samples whose decision is robust: the same
    // argmax on three calls, with a top-2 margin above four times the
    // logit spread between the calls.
    const auto& test = split_.test;
    for (std::size_t j = 0; j < test.size(); ++j) {
      nn::Matrix x(test.features(), 1);
      for (std::size_t f = 0; f < test.features(); ++f)
        x(f, 0) = test.inputs(f, j);
      std::vector<nn::Matrix> runs;
      for (int k = 0; k < 3; ++k) runs.push_back(backend_->forward(*mlp_, x));
      const std::size_t label = argmax(runs[0]);
      double spread = 0.0, margin = 1e300;
      bool agree = true;
      for (const nn::Matrix& r : runs) {
        agree = agree && argmax(r) == label;
        for (std::size_t c = 0; c < r.rows(); ++c) {
          spread = std::max(spread, std::abs(r(c, 0) - runs[0](c, 0)));
          if (c != label) margin = std::min(margin, r(label, 0) - r(c, 0));
        }
      }
      if (agree && margin > 4.0 * spread) {
        samples_.push_back(std::move(x));
        expected_.push_back(label);
      }
    }
    if (samples_.empty())
      throw std::runtime_error("nn_digits_b1: no test sample has a robust label");
    ref_ = request_cost();
    tiles_before_ = backend_->totals().tiles_programmed;
  }

  void op(Spans& spans) override {
    last_sample_ = next_sample_;
    next_sample_ = (next_sample_ + 1) % samples_.size();
    Scope s(spans, "nn.forward");
    logits_ = backend_->forward(*mlp_, samples_[last_sample_]);
  }

  bool check_op() override {
    const std::uint64_t tiles = backend_->totals().tiles_programmed;
    const bool ok = argmax(logits_) == expected_[last_sample_] &&
                    tiles - tiles_before_ == ref_.totals.tiles_programmed;
    tiles_before_ = tiles;
    return ok;
  }

  void verify(std::uint64_t& attempted, std::uint64_t& failed) override {
    // Enough robust samples to serve, and the exact per-request cost
    // reproduced bit for bit by a second fresh backend.
    const RequestCost again = request_cost();
    attempted += 2;
    if (samples_.size() < split_.test.size() / 2) ++failed;
    if (again.totals.tiles_programmed != ref_.totals.tiles_programmed ||
        again.totals.optical_time_s != ref_.totals.optical_time_s ||
        again.totals.energy_j != ref_.totals.energy_j ||
        again.totals.macs != ref_.totals.macs ||
        again.counters.mvm_ops != ref_.counters.mvm_ops ||
        again.counters.program_ops != ref_.counters.program_ops)
      ++failed;
  }

  SimPerOp sim_per_op() const override {
    // No CPU runs here; the simulated operations are the photonic MACs.
    return {ref_.totals.optical_time_s * 1e6, ref_.totals.energy_j * 1e6,
            static_cast<double>(ref_.totals.macs)};
  }

  void layer_metrics(const Spans&, const Spans& op_spans, Metrics& out) override {
    const double forward_us = op_spans.median_s("nn.forward") * 1e6;
    out["nn.forward_us"] = {forward_us, "us"};
    out["nn.tiles_programmed"] = {
        static_cast<double>(ref_.totals.tiles_programmed), "count"};
    out["core.mvm_ops"] = {static_cast<double>(ref_.counters.mvm_ops), "count"};
    out["core.program_ops"] = {static_cast<double>(ref_.counters.program_ops),
                               "count"};
    replay_photonic_layers(request_tiles(samples_.front()), out);
    out["nn.digital_us"] = {forward_us - out["core.set_weights_us"].value -
                                out["core.multiply_us"].value,
                            "us"};
  }

 private:
  RequestCost request_cost() const {
    nn::PhotonicBackend fresh(backend_config());
    // The engine programs an identity at construction; count the request only.
    aspen::core::MvmCounters c = fresh.core().engine().counters();
    (void)fresh.forward(*mlp_, samples_.front());
    const aspen::core::MvmCounters& after = fresh.core().engine().counters();
    c.mvm_ops = after.mvm_ops - c.mvm_ops;
    c.program_ops = after.program_ops - c.program_ops;
    return {fresh.totals(), c};
  }

  /// The weight tiles one request programs, in PhotonicBackend's order,
  /// each with its (normalized) input tile. The first layer's input is
  /// the sample itself; the second layer's is the digital activation.
  TileReplay request_tiles(const nn::Matrix& sample) const {
    TileReplay r;
    r.gemm = backend_config().gemm;
    const std::size_t n = r.gemm.mvm.ports;
    nn::Matrix act = sample;
    for (const nn::DenseLayer& layer : mlp_->layers()) {
      const nn::Matrix& w = layer.weights;
      const double xmax = act.max_abs();
      const double inv = xmax > 0.0 ? 1.0 / xmax : 0.0;
      for (std::size_t kt = 0; kt * n < w.cols(); ++kt) {
        CMat xt(n, 1);
        for (std::size_t i = 0; i < n && kt * n + i < w.cols(); ++i)
          xt(i, 0) = cplx{act(kt * n + i, 0) * inv, 0.0};
        for (std::size_t rt = 0; rt * n < w.rows(); ++rt) {
          CMat wt(n, n);
          for (std::size_t i = 0; i < n && rt * n + i < w.rows(); ++i)
            for (std::size_t j = 0; j < n && kt * n + j < w.cols(); ++j)
              wt(i, j) = cplx{w(rt * n + i, kt * n + j), 0.0};
          r.w.push_back(std::move(wt));
          r.x.push_back(xt);
        }
      }
      nn::Matrix z = w * act;
      for (std::size_t i = 0; i < z.rows(); ++i) z(i, 0) += layer.bias[i];
      act = nn::relu(z);
    }
    return r;
  }

  std::uint64_t seed_;
  nn::Split split_;
  std::unique_ptr<nn::Mlp> mlp_;
  std::unique_ptr<nn::PhotonicBackend> backend_;
  std::vector<nn::Matrix> samples_;
  std::vector<std::size_t> expected_;
  RequestCost ref_;
  nn::Matrix logits_;
  std::size_t next_sample_ = 0, last_sample_ = 0;
  std::uint64_t tiles_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_nn_workload(const WorkloadArgs& args) {
  return std::make_unique<Digits>(args);
}

}  // namespace perfbench
