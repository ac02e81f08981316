// Fused GRU kernel vs the op-by-op composition: value parity, gradient
// parity, central-difference gradcheck, and tensor-pool behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "autograd_testing.hpp"
#include "gru_reference.hpp"
#include "nn/gru.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace rnx::nn;
using rnx::test::gru_step_composed;
using rnx::util::RngStream;

Tensor random_tensor(std::size_t r, std::size_t c, RngStream& rng) {
  Tensor t(r, c);
  for (auto& x : t.flat()) x = rng.uniform(-1.0, 1.0);
  return t;
}

std::vector<Var> cell_params(const GRUCell& cell) {
  std::vector<Var> out;
  for (const auto& [n, v] : cell.named_params()) out.push_back(v);
  return out;
}

TEST(GruFused, ForwardMatchesComposed) {
  RngStream rng(21);
  const GRUCell cell(5, 7, rng);
  const Var x = constant(random_tensor(9, 5, rng));
  const Var h = constant(random_tensor(9, 7, rng));
  const Tensor fused = cell.step(x, h).value();
  const Tensor composed = gru_step_composed(cell, x, h).value();
  ASSERT_TRUE(fused.same_shape(composed));
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_NEAR(fused.flat()[i], composed.flat()[i], 1e-14);
}

/// Gradients of sum(y .* y) (a nonuniform downstream gradient) with
/// respect to x, h and every cell parameter, through step() or the
/// op-by-op oracle; x and h are constants unless flagged.
std::vector<Tensor> step_grads(const GRUCell& cell, const Tensor& xv,
                               const Tensor& hv, bool x_grad, bool h_grad,
                               bool fused) {
  Var x(xv, x_grad);
  Var h(hv, h_grad);
  const Var y = fused ? cell.step(x, h) : gru_step_composed(cell, x, h);
  sum_all(mul(y, y)).backward();
  std::vector<Tensor> grads{x.grad(), h.grad()};
  for (auto& p : cell_params(cell)) {
    grads.push_back(p.grad());
    p.zero_grad();
  }
  return grads;
}

// Over shapes that hit the AVX2 row and column tails, on the scalar and
// the SIMD backend, with x and h each also held constant.
TEST(GruFused, GradientsMatchComposedAllParamsAndInputs) {
  struct Shape {
    std::size_t in, hid, rows;
  };
  const Shape shapes[] = {{4, 6, 8}, {16, 16, 1}, {12, 12, 13}, {5, 7, 3}};
  std::vector<const kernels::Backend*> backends{&kernels::scalar_backend()};
  if (kernels::simd_backend() != nullptr)
    backends.push_back(kernels::simd_backend());
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    const auto [in, hid, rows] = shapes[s];
    RngStream rng(22 + s);
    const GRUCell cell(in, hid, rng);
    const Tensor xv = random_tensor(rows, in, rng);
    const Tensor hv = random_tensor(rows, hid, rng);
    for (const kernels::Backend* backend : backends) {
      const kernels::ScopedBackendOverride pin(*backend);
      for (const auto& [x_grad, h_grad] :
           {std::pair{true, true}, {false, true}, {true, false}}) {
        const auto fused = step_grads(cell, xv, hv, x_grad, h_grad, true);
        const auto composed = step_grads(cell, xv, hv, x_grad, h_grad, false);
        ASSERT_EQ(fused.size(), composed.size());
        for (std::size_t t = 0; t < fused.size(); ++t) {
          ASSERT_TRUE(fused[t].same_shape(composed[t]));
          for (std::size_t i = 0; i < fused[t].size(); ++i)
            EXPECT_NEAR(fused[t].flat()[i], composed[t].flat()[i], 1e-12)
                << "shape " << s << " backend " << backend->name
                << " x_grad " << x_grad << " h_grad " << h_grad
                << " tensor " << t << " entry " << i;
        }
      }
    }
  }
}

TEST(GruFused, GradcheckAgainstCentralDifferences) {
  RngStream rng(23);
  const GRUCell cell(3, 4, rng);
  const Tensor xv = random_tensor(5, 3, rng);
  const Tensor hv = random_tensor(5, 4, rng);
  Var x(xv, true);
  Var h(hv, true);
  std::vector<Var> params = cell_params(cell);
  params.push_back(x);
  params.push_back(h);
  const auto report = grad_check(
      [&] { return mean_all(cell.step(x, h)); }, params);
  EXPECT_TRUE(report.ok(1e-6)) << "max rel err " << report.max_rel_err;
}

TEST(GruFused, BpttThroughFusedSteps) {
  // Two chained fused steps: the saved activations of step 1 must survive
  // until step 2's backward routes gradient through them.
  RngStream rng(24);
  const GRUCell cell(2, 3, rng);
  const Tensor x1 = random_tensor(4, 2, rng);
  const Tensor x2 = random_tensor(4, 2, rng);
  std::vector<Var> params = cell_params(cell);
  const auto report = grad_check(
      [&] {
        Var h = constant(Tensor::zeros(4, 3));
        h = cell.step(constant(x1), h);
        h = cell.step(constant(x2), h);
        return mean_all(h);
      },
      params);
  EXPECT_TRUE(report.ok(1e-6)) << "max rel err " << report.max_rel_err;
}

TEST(GruFused, NoGradModeBuildsNoTape) {
  RngStream rng(25);
  const GRUCell cell(3, 3, rng);
  const NoGradGuard guard;
  const Var y = cell.step(constant(random_tensor(2, 3, rng)),
                          constant(random_tensor(2, 3, rng)));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
}

TEST(TensorPool, RecyclesBuffers) {
  TensorPool::drain();
  Tensor a = TensorPool::acquire(4, 4);
  a(0, 0) = 7.0;
  TensorPool::release(std::move(a));
  EXPECT_EQ(TensorPool::pooled_count(), 1u);
  const Tensor b = TensorPool::acquire(2, 8);  // same element count, reused
  EXPECT_EQ(TensorPool::pooled_count(), 0u);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.cols(), 8u);
  for (const double v : b.flat()) EXPECT_EQ(v, 0.0);  // zeroed on reuse
  TensorPool::drain();
}

TEST(TensorPool, TakeBufferEmptiesTensor) {
  Tensor t(3, 2);
  auto buf = std::move(t).take_buffer();
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_TRUE(t.empty());  // NOLINT(bugprone-use-after-move): documented
}

}  // namespace
