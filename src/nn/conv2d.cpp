#include "nn/conv2d.hpp"

#include <cassert>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "util/scratch_pool.hpp"

namespace iprune::nn {

Conv2d::Conv2d(std::string name, Conv2dSpec spec, util::Rng& rng)
    : Layer(std::move(name)),
      spec_(spec),
      weight_({spec.out_channels, spec.in_channels * spec.kernel_h *
                                      spec.kernel_w}),
      bias_({spec.out_channels}),
      mask_({spec.out_channels,
             spec.in_channels * spec.kernel_h * spec.kernel_w}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  kaiming_uniform(weight_, lowered_k(), rng);
  mask_.fill(1.0f);
}

std::size_t Conv2d::out_h(std::size_t in_h) const {
  assert(in_h + 2 * spec_.pad_h >= spec_.kernel_h);
  return (in_h + 2 * spec_.pad_h - spec_.kernel_h) / spec_.stride + 1;
}

std::size_t Conv2d::out_w(std::size_t in_w) const {
  assert(in_w + 2 * spec_.pad_w >= spec_.kernel_w);
  return (in_w + 2 * spec_.pad_w - spec_.kernel_w) / spec_.stride + 1;
}

Shape Conv2d::output_shape(std::span<const Shape> input_shapes) const {
  if (input_shapes.size() != 1 || input_shapes[0].size() != 3) {
    throw std::invalid_argument(name() + ": expects one [C,H,W] input");
  }
  const Shape& in = input_shapes[0];
  if (in[0] != spec_.in_channels) {
    throw std::invalid_argument(name() + ": channel mismatch, got " +
                                shape_str(in));
  }
  return {spec_.out_channels, out_h(in[1]), out_w(in[2])};
}

void Conv2d::im2col(const float* input, std::size_t in_h, std::size_t in_w,
                    float* col) const {
  // col is [K, Ho*Wo] with K = Cin*kh*kw, laid out so each GEMM column is
  // one output pixel's receptive field.
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  const std::size_t spatial = ho * wo;
  std::size_t k_row = 0;
  for (std::size_t c = 0; c < spec_.in_channels; ++c) {
    const float* in_plane = input + c * in_h * in_w;
    for (std::size_t kh = 0; kh < spec_.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < spec_.kernel_w; ++kw, ++k_row) {
        float* col_row = col + k_row * spatial;
        for (std::size_t oy = 0; oy < ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec_.stride + kh) -
              static_cast<std::ptrdiff_t>(spec_.pad_h);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) {
            for (std::size_t ox = 0; ox < wo; ++ox) {
              col_row[oy * wo + ox] = 0.0f;
            }
            continue;
          }
          const float* in_row =
              in_plane + static_cast<std::size_t>(iy) * in_w;
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec_.stride + kw) -
                static_cast<std::ptrdiff_t>(spec_.pad_w);
            col_row[oy * wo + ox] =
                (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w))
                    ? 0.0f
                    : in_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void Conv2d::im2col_t(const float* input, std::size_t in_h, std::size_t in_w,
                      float* col_t) const {
  // col_t is [Ho*Wo, K]: row s is output pixel s's receptive field, in the
  // same (c, kh, kw) order as a column of im2col's [K, Ho*Wo] matrix.
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  for (std::size_t oy = 0; oy < ho; ++oy) {
    for (std::size_t ox = 0; ox < wo; ++ox) {
      float* row = col_t + (oy * wo + ox) * lowered_k();
      for (std::size_t c = 0; c < spec_.in_channels; ++c) {
        const float* in_plane = input + c * in_h * in_w;
        for (std::size_t kh = 0; kh < spec_.kernel_h; ++kh) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec_.stride + kh) -
              static_cast<std::ptrdiff_t>(spec_.pad_h);
          const bool row_in =
              iy >= 0 && iy < static_cast<std::ptrdiff_t>(in_h);
          const float* in_row =
              row_in ? in_plane + static_cast<std::size_t>(iy) * in_w
                     : nullptr;
          for (std::size_t kw = 0; kw < spec_.kernel_w; ++kw) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec_.stride + kw) -
                static_cast<std::ptrdiff_t>(spec_.pad_w);
            *row++ = (!row_in || ix < 0 ||
                      ix >= static_cast<std::ptrdiff_t>(in_w))
                         ? 0.0f
                         : in_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* col, std::size_t in_h, std::size_t in_w,
                    float* grad_input) const {
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  const std::size_t spatial = ho * wo;
  std::size_t k_row = 0;
  for (std::size_t c = 0; c < spec_.in_channels; ++c) {
    float* grad_plane = grad_input + c * in_h * in_w;
    for (std::size_t kh = 0; kh < spec_.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < spec_.kernel_w; ++kw, ++k_row) {
        const float* col_row = col + k_row * spatial;
        for (std::size_t oy = 0; oy < ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec_.stride + kh) -
              static_cast<std::ptrdiff_t>(spec_.pad_h);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) {
            continue;
          }
          float* grad_row = grad_plane + static_cast<std::size_t>(iy) * in_w;
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec_.stride + kw) -
                static_cast<std::ptrdiff_t>(spec_.pad_w);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w)) {
              continue;
            }
            grad_row[static_cast<std::size_t>(ix)] += col_row[oy * wo + ox];
          }
        }
      }
    }
  }
}

Tensor Conv2d::infer(std::span<const Tensor* const> inputs) const {
  assert(inputs.size() == 1);
  const Tensor& input = *inputs[0];
  assert(input.rank() == 4 && input.dim(1) == spec_.in_channels);
  const std::size_t batch = input.dim(0);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  const std::size_t spatial = ho * wo;
  const std::size_t k = lowered_k();

  Tensor output({batch, spec_.out_channels, ho, wo});
  // Lane-local scratch: im2col overwrites every element, so reused bytes
  // are fine, and infer() stays safe under parallel_map (one pool per lane).
  auto col = util::ScratchPool::local().acquire<float>(k * spatial);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(input.data() + n * spec_.in_channels * in_h * in_w, in_h, in_w,
           col.data());
    float* out_mat = output.data() + n * spec_.out_channels * spatial;
    gemm_accumulate(weight_.data(), col.data(), out_mat, spec_.out_channels,
                    k, spatial);
    for (std::size_t c = 0; c < spec_.out_channels; ++c) {
      const float b = bias_[c];
      float* out_row = out_mat + c * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        out_row[s] += b;
      }
    }
  }
  return output;
}

Tensor Conv2d::forward(std::span<const Tensor* const> inputs, bool training) {
  if (training) {
    cached_input_ = *inputs[0];
  }
  return infer(inputs);
}

std::vector<Tensor> Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  assert(input.rank() == 4);
  const std::size_t batch = input.dim(0);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  const std::size_t ho = out_h(in_h);
  const std::size_t wo = out_w(in_w);
  const std::size_t spatial = ho * wo;
  const std::size_t k = lowered_k();
  const std::size_t cout = spec_.out_channels;

  // Both gradients run through gemm_accumulate, whose zero-skipping path
  // pays off on ReLU/max-pool-sparse dOut rows and on pruned weights. Per
  // element, the accumulation sequence is the one ref::gemm_a_bt and
  // ref::gemm_at_b define (docs/performance.md).
  Tensor grad_input(input.shape());
  auto& pool = util::ScratchPool::local();
  auto col_t = pool.acquire<float>(spatial * k);
  auto grad_col = pool.acquire<float>(k * spatial);
  auto dw = pool.acquire<float>(cout * k);
  auto w_t = pool.acquire<float>(k * cout);
  for (std::size_t co = 0; co < cout; ++co) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      w_t[kk * cout + co] = weight_[co * k + kk];
    }
  }
  for (std::size_t n = 0; n < batch; ++n) {
    im2col_t(input.data() + n * spec_.in_channels * in_h * in_w, in_h, in_w,
             col_t.data());
    const float* grad_mat = grad_output.data() + n * cout * spatial;
    // dW[Cout,K] += dOut[Cout,S] * col_t[S,K], as one zero-started
    // per-sample partial (ascending s) added once, like gemm_a_bt.
    dw.fill(0.0f);
    gemm_accumulate(grad_mat, col_t.data(), dw.data(), cout, spatial, k);
    float* weight_grad = weight_grad_.data();
    for (std::size_t i = 0; i < cout * k; ++i) {
      weight_grad[i] += dw[i];
    }
    // db[Cout] += row sums of dOut
    for (std::size_t c = 0; c < cout; ++c) {
      const float* grad_row = grad_mat + c * spatial;
      float acc = 0.0f;
      for (std::size_t s = 0; s < spatial; ++s) {
        acc += grad_row[s];
      }
      bias_grad_[c] += acc;
    }
    // dcol[K,S] = W^T[K,Cout] * dOut[Cout,S], ascending Cout from +0.
    grad_col.fill(0.0f);
    gemm_accumulate(w_t.data(), grad_mat, grad_col.data(), k, cout, spatial);
    col2im(grad_col.data(), in_h, in_w,
           grad_input.data() + n * spec_.in_channels * in_h * in_w);
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

std::vector<ParamRef> Conv2d::params() {
  return {{&weight_, &weight_grad_, &mask_}, {&bias_, &bias_grad_, nullptr}};
}

void Conv2d::apply_mask() {
  weight_.hadamard(mask_);
}

}  // namespace iprune::nn
