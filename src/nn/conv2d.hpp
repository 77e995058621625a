#pragma once
// 2-D convolution layer.
//
// Weights are stored GEMM-ready as a [Cout, K] matrix with K = Cin*kh*kw —
// the same "lowered" layout the HAWAII+ engine tiles on the device (paper
// §III-D cites Anderson et al. [2] for this loop tiling/ordering). The
// pruning mask has the same [Cout, K] shape so a weight block here maps 1:1
// to an accelerator-operation block on the device.

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace iprune::nn {

struct Conv2dSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel_h = 3;
  std::size_t kernel_w = 3;
  std::size_t stride = 1;
  std::size_t pad_h = 0;
  std::size_t pad_w = 0;
};

class Conv2d final : public Layer {
 public:
  Conv2d(std::string name, Conv2dSpec spec, util::Rng& rng);

  [[nodiscard]] LayerKind kind() const override { return LayerKind::kConv2d; }

  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::unique_ptr<Layer>(new Conv2d(*this));
  }
  [[nodiscard]] Tensor infer(
      std::span<const Tensor* const> inputs) const override;
  Tensor forward(std::span<const Tensor* const> inputs,
                 bool training) override;
  std::vector<Tensor> backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] Shape output_shape(
      std::span<const Shape> input_shapes) const override;

  [[nodiscard]] const Conv2dSpec& spec() const { return spec_; }
  /// Lowered reduction depth K = Cin * kh * kw.
  [[nodiscard]] std::size_t lowered_k() const {
    return spec_.in_channels * spec_.kernel_h * spec_.kernel_w;
  }

  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }
  [[nodiscard]] Tensor& weight_mask() { return mask_; }
  [[nodiscard]] const Tensor& weight_mask() const { return mask_; }

  /// Re-apply the mask to the weights (used after pruning edits the mask).
  void apply_mask();

  /// Spatial output size for the given input H/W.
  [[nodiscard]] std::size_t out_h(std::size_t in_h) const;
  [[nodiscard]] std::size_t out_w(std::size_t in_w) const;

 private:
  Conv2d(const Conv2d&) = default;

  void im2col(const float* input, std::size_t in_h, std::size_t in_w,
              float* col) const;
  /// im2col lowered S-major: col_t[Ho*Wo, K], the transpose of im2col's
  /// [K, Ho*Wo], written directly (backward's weight-gradient operand).
  void im2col_t(const float* input, std::size_t in_h, std::size_t in_w,
                float* col_t) const;
  void col2im(const float* col, std::size_t in_h, std::size_t in_w,
              float* grad_input) const;

  Conv2dSpec spec_;
  Tensor weight_;  // [Cout, K]
  Tensor bias_;    // [Cout]
  Tensor mask_;    // [Cout, K], 0/1
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;  // [N, Cin, H, W]
};

}  // namespace iprune::nn
