// Conv2d::backward against the lowering it replaced, rebuilt here from
// the retained naive kernels: im2col into [K, S], dW += ref::gemm_a_bt(
// dOut, col), dcol = ref::gemm_at_b(W, dOut), col2im. Every gradient
// (weights, bias, input) must match with memcmp, not EXPECT_NEAR, across
// the paper models' conv shapes (stride 2, padding, kh > 1), dense and
// pruned weights, and dense and ReLU/pool-sparse output gradients.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "util/rng.hpp"

namespace iprune::nn {
namespace {

struct ConvCase {
  const char* name;
  Conv2dSpec spec;
  std::size_t in_h;
  std::size_t in_w;
};

// HAR conv1-3, CKS conv1-2 and SQN conv1 / a fire 3x3 expand / conv10.
const ConvCase kCases[] = {
    {"har_conv1", {3, 16, 1, 5, 1, 0, 2}, 1, 128},
    {"har_conv2", {16, 32, 1, 5, 1, 0, 2}, 1, 64},
    {"har_conv3", {32, 48, 1, 3, 1, 0, 1}, 1, 32},
    {"cks_conv1", {1, 28, 8, 4, 2, 1, 1}, 49, 10},
    {"cks_conv2", {28, 30, 4, 3, 1, 1, 1}, 22, 5},
    {"sqn_conv1", {3, 24, 3, 3, 1, 1, 1}, 32, 32},
    {"sqn_expand3x3", {16, 32, 3, 3, 1, 1, 1}, 16, 16},
    {"sqn_conv10", {128, 10, 1, 1, 1, 0, 0}, 8, 8},
};

enum class GradPattern { kDense, kReluSparse, kPoolSparse };
enum class Weights { kDense, kPruned };

std::size_t out_dim(std::size_t in, std::size_t pad, std::size_t kernel,
                    std::size_t stride) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// The [K, S] lowering the parent backward fed to both GEMMs.
void ref_im2col(const ConvCase& cc, const float* input, float* col) {
  const Conv2dSpec& s = cc.spec;
  const std::size_t ho = out_dim(cc.in_h, s.pad_h, s.kernel_h, s.stride);
  const std::size_t wo = out_dim(cc.in_w, s.pad_w, s.kernel_w, s.stride);
  std::size_t row = 0;
  for (std::size_t c = 0; c < s.in_channels; ++c) {
    for (std::size_t kh = 0; kh < s.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < s.kernel_w; ++kw, ++row) {
        for (std::size_t oy = 0; oy < ho; ++oy) {
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const long iy = static_cast<long>(oy * s.stride + kh) -
                            static_cast<long>(s.pad_h);
            const long ix = static_cast<long>(ox * s.stride + kw) -
                            static_cast<long>(s.pad_w);
            const bool inside = iy >= 0 && iy < static_cast<long>(cc.in_h) &&
                                ix >= 0 && ix < static_cast<long>(cc.in_w);
            col[row * ho * wo + oy * wo + ox] =
                inside ? input[(c * cc.in_h + static_cast<std::size_t>(iy)) *
                                   cc.in_w +
                               static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void ref_col2im(const ConvCase& cc, const float* col, float* grad_input) {
  const Conv2dSpec& s = cc.spec;
  const std::size_t ho = out_dim(cc.in_h, s.pad_h, s.kernel_h, s.stride);
  const std::size_t wo = out_dim(cc.in_w, s.pad_w, s.kernel_w, s.stride);
  std::size_t row = 0;
  for (std::size_t c = 0; c < s.in_channels; ++c) {
    for (std::size_t kh = 0; kh < s.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < s.kernel_w; ++kw, ++row) {
        for (std::size_t oy = 0; oy < ho; ++oy) {
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const long iy = static_cast<long>(oy * s.stride + kh) -
                            static_cast<long>(s.pad_h);
            const long ix = static_cast<long>(ox * s.stride + kw) -
                            static_cast<long>(s.pad_w);
            if (iy >= 0 && iy < static_cast<long>(cc.in_h) && ix >= 0 &&
                ix < static_cast<long>(cc.in_w)) {
              grad_input[(c * cc.in_h + static_cast<std::size_t>(iy)) *
                             cc.in_w +
                         static_cast<std::size_t>(ix)] +=
                  col[row * ho * wo + oy * wo + ox];
            }
          }
        }
      }
    }
  }
}

/// Parent-formulation gradients, accumulated across calls like the layer.
struct RefGrads {
  std::vector<float> weight;
  std::vector<float> bias;
  std::vector<float> input;  // of the last call only
};

void ref_backward(const ConvCase& cc, const Tensor& weight,
                  const Tensor& input, const Tensor& grad_output,
                  RefGrads& g) {
  const Conv2dSpec& s = cc.spec;
  const std::size_t batch = input.dim(0);
  const std::size_t k = s.in_channels * s.kernel_h * s.kernel_w;
  const std::size_t spatial =
      out_dim(cc.in_h, s.pad_h, s.kernel_h, s.stride) *
      out_dim(cc.in_w, s.pad_w, s.kernel_w, s.stride);
  const std::size_t in_plane = s.in_channels * cc.in_h * cc.in_w;
  std::vector<float> col(k * spatial);
  std::vector<float> grad_col(k * spatial);
  g.input.assign(input.numel(), 0.0f);
  for (std::size_t n = 0; n < batch; ++n) {
    ref_im2col(cc, input.data() + n * in_plane, col.data());
    const float* grad_mat =
        grad_output.data() + n * s.out_channels * spatial;
    ref::gemm_a_bt(grad_mat, col.data(), g.weight.data(), s.out_channels,
                   spatial, k);
    for (std::size_t c = 0; c < s.out_channels; ++c) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < spatial; ++i) {
        acc += grad_mat[c * spatial + i];
      }
      g.bias[c] += acc;
    }
    std::fill(grad_col.begin(), grad_col.end(), 0.0f);
    ref::gemm_at_b(weight.data(), grad_mat, grad_col.data(), k,
                   s.out_channels, spatial);
    ref_col2im(cc, grad_col.data(), g.input.data() + n * in_plane);
  }
}

Tensor random_tensor(util::Rng& rng, const Shape& shape) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

/// dOut as it reaches a conv in training: dense, through a ReLU (zero
/// where the pre-activation was not positive), or through ReLU plus a
/// 1x2 max pool (at most one survivor per pooling window).
Tensor make_grad_output(util::Rng& rng, const Tensor& pre_activation,
                        GradPattern pattern) {
  Tensor g = random_tensor(rng, pre_activation.shape());
  const std::size_t w = pre_activation.dim(3);
  for (std::size_t i = 0; i < g.numel(); ++i) {
    const bool relu_dead = pre_activation[i] <= 0.0f;
    const bool pool_loser = (i % w) % 2 != (i / w) % 2;
    if ((pattern != GradPattern::kDense && relu_dead) ||
        (pattern == GradPattern::kPoolSparse && pool_loser)) {
      g[i] = 0.0f;
    }
  }
  return g;
}

bool same_bits(const float* a, const float* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(float)) == 0;
}

void check_case(const ConvCase& cc, Weights weights, GradPattern pattern,
                std::uint64_t seed) {
  util::Rng rng(seed);
  Conv2d conv("conv", cc.spec, rng);
  if (weights == Weights::kPruned) {
    // Half the weights pruned, in whole 4-wide blocks and singly: the
    // hadamard leaves -0.0f where a negative weight is masked.
    Tensor& mask = conv.weight_mask();
    for (std::size_t i = 0; i < mask.numel(); ++i) {
      mask[i] = ((i / 4) % 3 == 0 || rng.uniform() < 0.25) ? 0.0f : 1.0f;
    }
    conv.apply_mask();
  }
  const std::vector<ParamRef> params = conv.params();
  ASSERT_EQ(params.size(), 2u);
  conv.zero_grads();

  constexpr std::size_t kBatch = 3;
  RefGrads ref_grads;
  ref_grads.weight.assign(conv.weight().numel(), 0.0f);
  ref_grads.bias.assign(cc.spec.out_channels, 0.0f);
  // Two backward calls: the second accumulates into nonzero gradients.
  for (int call = 0; call < 2; ++call) {
    const Tensor input = random_tensor(
        rng, {kBatch, cc.spec.in_channels, cc.in_h, cc.in_w});
    const Tensor* ins[] = {&input};
    const Tensor out = conv.forward(ins, /*training=*/true);
    const Tensor grad_output = make_grad_output(rng, out, pattern);
    const std::vector<Tensor> grads = conv.backward(grad_output);
    ref_backward(cc, conv.weight(), input, grad_output, ref_grads);

    ASSERT_EQ(grads.size(), 1u);
    const std::string where = std::string(cc.name) + " call " +
                              std::to_string(call);
    ASSERT_TRUE(same_bits(grads[0].data(), ref_grads.input.data(),
                          input.numel()))
        << where << ": input gradient";
    ASSERT_TRUE(same_bits(params[0].grad->data(), ref_grads.weight.data(),
                          ref_grads.weight.size()))
        << where << ": weight gradient";
    ASSERT_TRUE(same_bits(params[1].grad->data(), ref_grads.bias.data(),
                          ref_grads.bias.size()))
        << where << ": bias gradient";
  }
  EXPECT_GT(params[0].grad->count_nonzero(), 0u) << cc.name;
}

TEST(Conv2dBackward, BitIdenticalToRefLowering) {
  std::uint64_t seed = 0xC0DE;
  for (const ConvCase& cc : kCases) {
    for (const Weights weights : {Weights::kDense, Weights::kPruned}) {
      for (const GradPattern pattern :
           {GradPattern::kDense, GradPattern::kReluSparse,
            GradPattern::kPoolSparse}) {
        SCOPED_TRACE(std::string(cc.name) +
                     (weights == Weights::kPruned ? " pruned" : " dense") +
                     " pattern " +
                     std::to_string(static_cast<int>(pattern)));
        check_case(cc, weights, pattern, ++seed);
      }
    }
  }
}

}  // namespace
}  // namespace iprune::nn
