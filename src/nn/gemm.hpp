#pragma once
// Small dense matrix-multiply kernels used by the training-side conv/dense
// layers. Not a BLAS; register-tiled loop nests that autovectorize well
// for the CI-scale training runs this project performs.
//
// Every kernel is BIT-IDENTICAL to its naive counterpart in nn::ref for
// finite inputs: optimizations only reorder memory traffic, never the
// per-element floating-point accumulation sequence (each C element still
// receives its k-contributions one rounded add at a time, in ascending-k
// order). tests/nn/gemm_property_test.cpp pins this across shapes,
// sparsities, and alignment offsets.
//
// Runtime path selection: the kernels count a row's nonzeros once and
// either skip zero weights (pruned rows) or run a dense fast path that
// drops the per-element zero branch. gemm_accumulate register-tiles both:
// four reduction steps (four consecutive k, or a sparse row's next four
// nonzeros in ascending k) share one pass over the C row, and a 0-3 step
// remainder runs singly. Conv2d::backward lowers both of its GEMMs onto
// gemm_accumulate (see docs/performance.md).

#include <cstddef>

namespace iprune::nn {

/// C[m x n] += A[m x k] * B[k x n]   (all row-major, C must be pre-zeroed
/// by the caller when accumulation is not wanted).
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n);

/// C[m x n] += A^T[k x m] * B[k x n]  (A stored row-major as [k x m]).
void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);

/// C[m x n] += A[m x k] * B^T[n x k]  (B stored row-major as [n x k]).
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);

namespace ref {

// Retained naive seed kernels: the executable specification the optimized
// kernels are differentially tested against. Not used on any hot path.

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n);
void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);

}  // namespace ref

}  // namespace iprune::nn
