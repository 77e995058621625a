#include "nn/gemm.hpp"

namespace iprune::nn {

namespace ref {

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  // i-k-j order: the inner loop streams both B's row and C's row, which
  // autovectorizes and keeps one A element in a register.
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float a_ik = a_row[kk];
      if (a_ik == 0.0f) {
        continue;  // sparse weights after pruning make this branch pay off
      }
      const float* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ik * b_row[j];
      }
    }
  }
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * m;
    const float* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float a_ki = a_row[i];
      if (a_ki == 0.0f) {
        continue;
      }
      float* c_row = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ki * b_row[j];
      }
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a_row[kk] * b_row[kk];
      }
      c_row[j] += acc;
    }
  }
}

}  // namespace ref

namespace {

// A row (or A-row in the transposed kernel) runs the dense fast path when
// at least 3/4 of its weights survive: the few zero multiply-adds it no
// longer branches around are cheaper than a data-dependent branch per
// element. Zero contributions cannot change C: every accumulator starts
// at +0 (callers pre-zero C or accumulate sums that IEEE-754 round-to-
// nearest can never drive to -0), and x + (+/-0) == x bit-exactly then.
constexpr std::size_t kDenseNum = 3;
constexpr std::size_t kDenseDen = 4;

inline std::size_t count_nonzero(const float* __restrict row, std::size_t k) {
  std::size_t nnz = 0;
  for (std::size_t kk = 0; kk < k; ++kk) {
    nnz += row[kk] != 0.0f ? 1 : 0;
  }
  return nnz;
}

/// c_row[j] += a_ik * b_row[j] for all j, 4x-unrolled. The per-element
/// accumulation order is exactly the naive loop's.
inline void axpy_row(const float* __restrict b_row, float* __restrict c_row,
                     float a_ik, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    c_row[j] += a_ik * b_row[j];
    c_row[j + 1] += a_ik * b_row[j + 1];
    c_row[j + 2] += a_ik * b_row[j + 2];
    c_row[j + 3] += a_ik * b_row[j + 3];
  }
  for (; j < n; ++j) {
    c_row[j] += a_ik * b_row[j];
  }
}

/// One pass over the C row for four reduction steps: each c_row[j]
/// receives a0*b0[j], a1*b1[j], a2*b2[j], a3*b3[j] as four separately
/// rounded adds in that order, so the result is bit-identical to four
/// axpy_row calls while sharing one load/store of each C element.
inline void axpy4_row(const float* __restrict b0, const float* __restrict b1,
                      const float* __restrict b2, const float* __restrict b3,
                      float* __restrict c_row, float a0, float a1, float a2,
                      float a3, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    float acc = c_row[j];
    acc += a0 * b0[j];
    acc += a1 * b1[j];
    acc += a2 * b2[j];
    acc += a3 * b3[j];
    c_row[j] = acc;
  }
}

/// Dense register-tiled row update: every reduction step, zero or not,
/// four consecutive B rows per pass.
inline void dense_row_update(const float* __restrict a_row,
                             const float* __restrict b, float* __restrict c_row,
                             std::size_t k, std::size_t n) {
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const float* b0 = b + kk * n;
    axpy4_row(b0, b0 + n, b0 + 2 * n, b0 + 3 * n, c_row, a_row[kk],
              a_row[kk + 1], a_row[kk + 2], a_row[kk + 3], n);
  }
  for (; kk < k; ++kk) {
    axpy_row(b + kk * n, c_row, a_row[kk], n);
  }
}

/// Zero-skipping register-tiled row update: the row's nonzeros are
/// collected in ascending k and applied four per pass over the C row; a
/// remainder of 0-3 goes through axpy_row. The steps applied, and their
/// order, are exactly ref::gemm_accumulate's (which skips a_ik == 0).
inline void sparse_row_update(const float* __restrict a_row,
                              const float* __restrict b,
                              float* __restrict c_row, std::size_t k,
                              std::size_t n) {
  const float* rows[4];
  float vals[4];
  std::size_t held = 0;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float a_ik = a_row[kk];
    if (a_ik == 0.0f) {
      continue;  // pruned weights and ReLU/pool-sparse gradients pay here
    }
    rows[held] = b + kk * n;
    vals[held] = a_ik;
    if (++held == 4) {
      axpy4_row(rows[0], rows[1], rows[2], rows[3], c_row, vals[0], vals[1],
                vals[2], vals[3], n);
      held = 0;
    }
  }
  for (std::size_t r = 0; r < held; ++r) {
    axpy_row(rows[r], c_row, vals[r], n);
  }
}

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  // i-k-j order like ref::gemm_accumulate; per row, one nonzero scan picks
  // between the zero-skipping sparse path and the branch-free dense path.
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict c_row = c + i * n;
    const float* __restrict a_row = a + i * k;
    const std::size_t nnz = count_nonzero(a_row, k);
    if (nnz * kDenseDen >= k * kDenseNum) {
      dense_row_update(a_row, b, c_row, k, n);
    } else {
      sparse_row_update(a_row, b, c_row, k, n);
    }
  }
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  // k-i-j order like ref::gemm_at_b: per C element the k-contributions
  // still arrive in ascending order, because the k loop stays outermost.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* __restrict a_row = a + kk * m;
    const float* __restrict b_row = b + kk * n;
    const std::size_t nnz = count_nonzero(a_row, m);
    if (nnz * kDenseDen >= m * kDenseNum) {
      for (std::size_t i = 0; i < m; ++i) {
        axpy_row(b_row, c + i * n, a_row[i], n);
      }
      continue;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const float a_ki = a_row[i];
      if (a_ki == 0.0f) {
        continue;
      }
      axpy_row(b_row, c + i * n, a_ki, n);
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) {
  // Register-tile 4 output columns per pass: each dot product keeps its
  // own accumulator and walks k in ascending order (naive semantics), but
  // the four share every a_row load.
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict a_row = a + i * k;
    float* __restrict c_row = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict b0 = b + j * k;
      const float* __restrict b1 = b0 + k;
      const float* __restrict b2 = b1 + k;
      const float* __restrict b3 = b2 + k;
      float acc0 = 0.0f;
      float acc1 = 0.0f;
      float acc2 = 0.0f;
      float acc3 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float a_ik = a_row[kk];
        acc0 += a_ik * b0[kk];
        acc1 += a_ik * b1[kk];
        acc2 += a_ik * b2[kk];
        acc3 += a_ik * b3[kk];
      }
      c_row[j] += acc0;
      c_row[j + 1] += acc1;
      c_row[j + 2] += acc2;
      c_row[j + 3] += acc3;
    }
    for (; j < n; ++j) {
      const float* __restrict b_row = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a_row[kk] * b_row[kk];
      }
      c_row[j] += acc;
    }
  }
}

}  // namespace iprune::nn
