#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd_kernels.h"
#include "util/thread_pool.h"

namespace apots::tensor {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.SameShape(b)) {
    APOTS_LOG(Error) << op << ": shape mismatch " << a.ShapeString() << " vs "
                     << b.ShapeString();
    APOTS_CHECK(a.SameShape(b));
  }
}

/// Elementwise kernels are memory-bound; a range must be well past the
/// last-level-cache scale before extra cores beat the wakeup cost, so only
/// large ranges are handed to the pool.
constexpr size_t kElementwiseGrain = 1 << 18;

using simd::RowGrain;

/// The panel microkernels fuse every multiply-add; the tiles and the
/// reference loops fuse theirs only when the compiler targets FMA. Without
/// it the two kernels would round differently, and a row's bits would
/// depend on the size of the product it rides in.
#ifdef __FMA__
constexpr bool kPanelsMatchTiles = true;
#else
constexpr bool kPanelsMatchTiles = false;
#endif

/// Products of at least this many rows run the packed panels. Packing B
/// costs O(k*n) per call, as much as the multiply at m = 1: on the model's
/// k x n shapes, single-threaded, the panels lose 1.8-7x to the tiles at
/// 1-3 rows and win 1.4-2.0x at 32-64, crossing over at 12-16.
constexpr size_t kPanelMinRows = 16;

bool UsePanels(size_t m) { return kPanelsMatchTiles && m >= kPanelMinRows; }

/// Writes the R x C output block at (i, j) of a * b where `lhs_at(i, kk)`
/// reads element (i, kk) of the logical left operand and `pb` is the
/// row-major right operand. Each k step loads C values of b once and
/// multiply-adds them into all R rows of a fixed-shape accumulator block,
/// whose column loop the compiler vectorizes. Each output element
/// accumulates its k products in ascending-k order inside one scalar chain
/// — exactly the reference kernels' order, so results are bitwise identical
/// to them for finite inputs regardless of tile shape or row partition.
/// kAdd (AddProduct) adds each chain into the output, as out + chain.
template <size_t R, size_t C, bool kAdd, typename LhsAt>
void GemmTile(LhsAt lhs_at, const float* pb, float* po, size_t i, size_t j,
              size_t k, size_t n) {
  float acc[R][C] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    const float* b_row = pb + kk * n + j;
    for (size_t r = 0; r < R; ++r) {
      const float a_rk = lhs_at(i + r, kk);
      for (size_t c = 0; c < C; ++c) acc[r][c] += a_rk * b_row[c];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    float* out_row = po + (i + r) * n + j;
    for (size_t c = 0; c < C; ++c) {
      out_row[c] = kAdd ? out_row[c] + acc[r][c] : acc[r][c];
    }
  }
}

/// Writes rows [i, i + R) with R x C tiles, then R x 8 tiles over the
/// column tail, then R x 1 tiles over the last few columns.
template <size_t R, size_t C, bool kAdd, typename LhsAt>
void GemmRowStrip(LhsAt lhs_at, const float* pb, float* po, size_t i,
                  size_t k, size_t n) {
  size_t j = 0;
  for (; j + C <= n; j += C) GemmTile<R, C, kAdd>(lhs_at, pb, po, i, j, k, n);
  for (; j + 8 <= n; j += 8) GemmTile<R, 8, kAdd>(lhs_at, pb, po, i, j, k, n);
  for (; j < n; ++j) GemmTile<R, 1, kAdd>(lhs_at, pb, po, i, j, k, n);
}

/// Writes out rows [r0, r1) of a * b. Full 4-row groups run 4 x 16 tiles;
/// a 3-, 2- or 1-row remainder runs a 3 x 16, 2 x 32 or 1 x 64 tile, so
/// every tile holds 48-64 accumulators. Remainders are common: one-key
/// serving runs m = 1. (The pool's chunks are whole 4-row groups, so only
/// a product's last rows run one.)
template <bool kAdd, typename LhsAt>
void GemmRowRangeImpl(LhsAt lhs_at, const float* pb, float* po, size_t r0,
                      size_t r1, size_t k, size_t n) {
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    GemmRowStrip<4, 16, kAdd>(lhs_at, pb, po, i, k, n);
  }
  switch (r1 - i) {
    case 3:
      GemmRowStrip<3, 16, kAdd>(lhs_at, pb, po, i, k, n);
      break;
    case 2:
      GemmRowStrip<2, 32, kAdd>(lhs_at, pb, po, i, k, n);
      break;
    case 1:
      GemmRowStrip<1, 64, kAdd>(lhs_at, pb, po, i, k, n);
      break;
  }
}

/// Writes (or with kAdd, adds) the [m, n] product of the logical left
/// operand and the row-major right operand `pb` through the tiles, chunked
/// in whole 4-row groups.
template <bool kAdd = false, typename LhsAt>
void RunTiles(LhsAt lhs_at, const float* pb, float* po, size_t m, size_t k,
              size_t n) {
  simd::ParallelGemmRows(m, k * n, 4, [&](size_t r0, size_t r1) {
    GemmRowRangeImpl<kAdd>(lhs_at, pb, po, r0, r1, k, n);
  });
}

/// The tiles' product of a row-major [m, k] a and [k, n] b.
void MatmulTiles(const float* pa, size_t lda, const float* pb, float* po,
                 size_t m, size_t k, size_t n) {
  RunTiles([pa, lda](size_t i, size_t kk) { return pa[i * lda + kk]; }, pb,
           po, m, k, n);
}

/// Writes b^T ([k, n]) of the [n, k] b, read with row stride ldb, to pbt.
void TransposeRhs(const float* pb, size_t ldb, size_t k, size_t n,
                  float* pbt) {
  GlobalPool().ParallelFor(0, k, RowGrain(n),
                           [&](size_t r0, size_t r1, size_t) {
                             for (size_t kk = r0; kk < r1; ++kk) {
                               float* bt_row = pbt + kk * n;
                               for (size_t j = 0; j < n; ++j) {
                                 bt_row[j] = pb[j * ldb + kk];
                               }
                             }
                           });
}

/// Packs the strided [k, n] B into `storage` at the current kernel's
/// panel width.
PreparedRhs PackRhs(const float* b, size_t b_rs, size_t b_cs, size_t k,
                    size_t n, Tensor* storage) {
  const size_t nr = simd::PickGemmKernel().nr;
  storage->ResetShape({simd::PanelFloats(k, n, nr)});
  simd::PackPanels(b, b_rs, b_cs, k, n, nr, storage->data());
  return {storage->data(), k, n, nr};
}

/// Where tap (ki, kj) of a "same" convolution reads: output pixel (i, j)
/// reads input pixel (i + ki - pad, j + kj - pad), which lies inside the
/// plane for rows [i_lo, i_hi) and columns [j_lo, j_hi) and is padding
/// elsewhere. Within a plane that is a shift of the flat index by `shift`.
struct SameTap {
  long shift;
  long i_lo, i_hi;
  long j_lo, j_hi;
};

SameTap SameConvTap(size_t ki, size_t kj, size_t kernel, size_t height,
                    size_t width) {
  const long pad = static_cast<long>(kernel / 2);
  const long h = static_cast<long>(height), w = static_cast<long>(width);
  const long di = static_cast<long>(ki) - pad;
  const long dj = static_cast<long>(kj) - pad;
  SameTap tap;
  tap.shift = di * w + dj;
  tap.i_lo = std::clamp(-di, 0L, h);
  tap.i_hi = std::clamp(h - di, tap.i_lo, h);
  tap.j_lo = std::clamp(-dj, 0L, w);
  tap.j_hi = std::clamp(w - dj, tap.j_lo, w);
  return tap;
}

}  // namespace

KernelMode GetKernelMode() {
  return kPanelsMatchTiles ? KernelMode::kTilesAndPanels : KernelMode::kTiles;
}

const char* KernelModeName(KernelMode mode) {
  return mode == KernelMode::kTilesAndPanels ? "tiles+panels" : "tiles";
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor out = a;
  const float* pb = b.data();
  float* po = out.data();
  GlobalPool().ParallelFor(0, out.size(), kElementwiseGrain,
                           [&](size_t lo, size_t hi, size_t) {
                             for (size_t i = lo; i < hi; ++i) po[i] += pb[i];
                           });
  return out;
}

Tensor Scale(const Tensor& a, float scalar) {
  Tensor out = a;
  float* po = out.data();
  GlobalPool().ParallelFor(0, out.size(), kElementwiseGrain,
                           [&](size_t lo, size_t hi, size_t) {
                             for (size_t i = lo; i < hi; ++i) po[i] *= scalar;
                           });
  return out;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b, "AddInPlace");
  float* pa = a->data();
  const float* pb = b.data();
  GlobalPool().ParallelFor(0, a->size(), kElementwiseGrain,
                           [&](size_t lo, size_t hi, size_t) {
                             for (size_t i = lo; i < hi; ++i) pa[i] += pb[i];
                           });
}

void Axpy(Tensor* a, const Tensor& b, float scalar) {
  CheckSameShape(*a, b, "Axpy");
  float* pa = a->data();
  const float* pb = b.data();
  GlobalPool().ParallelFor(
      0, a->size(), kElementwiseGrain, [&](size_t lo, size_t hi, size_t) {
        for (size_t i = lo; i < hi; ++i) pa[i] += scalar * pb[i];
      });
}

namespace reference {

Tensor Matmul(const Tensor& a, const Tensor& b) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  APOTS_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // ikj loop order: the inner loop streams both b and out rows.
  for (size_t i = 0; i < m; ++i) {
    float* out_row = po + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      if (aik == 0.0f) continue;
      const float* b_row = pb + kk * n;
      for (size_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
  return out;
}

Tensor MatmulTransposeA(const Tensor& a, const Tensor& b) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  APOTS_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (size_t kk = 0; kk < k; ++kk) {
    const float* a_row = pa + kk * m;
    const float* b_row = pb + kk * n;
    for (size_t i = 0; i < m; ++i) {
      const float aik = a_row[i];
      if (aik == 0.0f) continue;
      float* out_row = po + i * n;
      for (size_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
  return out;
}

Tensor MatmulTransposeB(const Tensor& a, const Tensor& b) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  APOTS_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = pa + i * k;
    float* out_row = po + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = pb + j * k;
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      out_row[j] = acc;
    }
  }
  return out;
}

Tensor Im2Col(const Tensor& input, size_t kh, size_t kw, size_t pad) {
  APOTS_CHECK_EQ(input.rank(), 3u);
  const size_t channels = input.dim(0);
  const size_t height = input.dim(1);
  const size_t width = input.dim(2);
  APOTS_CHECK_GE(height + 2 * pad + 1, kh);
  APOTS_CHECK_GE(width + 2 * pad + 1, kw);
  const size_t out_h = height + 2 * pad - kh + 1;
  const size_t out_w = width + 2 * pad - kw + 1;
  const size_t col_width = out_h * out_w;
  Tensor columns({channels * kh * kw, col_width});
  float* pc = columns.data();
  for (size_t c = 0; c < channels; ++c) {
    for (size_t ki = 0; ki < kh; ++ki) {
      for (size_t kj = 0; kj < kw; ++kj) {
        const size_t row = (c * kh + ki) * kw + kj;
        float* dst = pc + row * col_width;
        for (size_t oi = 0; oi < out_h; ++oi) {
          const long src_i =
              static_cast<long>(oi + ki) - static_cast<long>(pad);
          for (size_t oj = 0; oj < out_w; ++oj) {
            const long src_j =
                static_cast<long>(oj + kj) - static_cast<long>(pad);
            float value = 0.0f;
            if (src_i >= 0 && src_i < static_cast<long>(height) &&
                src_j >= 0 && src_j < static_cast<long>(width)) {
              value = input.At3(c, static_cast<size_t>(src_i),
                                static_cast<size_t>(src_j));
            }
            dst[oi * out_w + oj] = value;
          }
        }
      }
    }
  }
  return columns;
}

}  // namespace reference

Tensor Matmul(const Tensor& a, const Tensor& b) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  Tensor out({a.rows(), b.cols()});
  MatmulInto(a, b, &out);
  return out;
}

Tensor MatmulTransposeA(const Tensor& a, const Tensor& b) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  Tensor out({a.cols(), b.cols()});
  MatmulTransposeAInto(a, b, &out);
  return out;
}

void MatmulTransposeAInto(const Tensor& a, const Tensor& b, Tensor* out) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  APOTS_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  APOTS_CHECK_EQ(out->rank(), 2u);
  APOTS_CHECK_EQ(out->rows(), m);
  APOTS_CHECK_EQ(out->cols(), n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  if (UsePanels(m)) {
    // The strided left operand (rs=1, cs=m) expresses a^T without
    // materializing it; broadcast loads don't care about the stride.
    simd::GemmStrided(pa, 1, m, pb, n, 1, po, m, k, n);
    return;
  }
  // Parallel over output rows (columns of a): each worker owns a disjoint
  // row panel of `out` and walks all of k, so the k-ascending accumulation
  // order per element matches the reference kernel exactly.
  RunTiles([pa, m](size_t i, size_t kk) { return pa[kk * m + i]; }, pb, po, m,
           k, n);
}

Tensor MatmulTransposeB(const Tensor& a, const Tensor& b) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  APOTS_CHECK_EQ(a.cols(), b.cols());
  Tensor out({a.rows(), b.rows()});
  Tensor bt;
  MatmulInto(a, PrepareRhsTransposed(b, a.rows(), &bt), &out);
  return out;
}

StridedMatrix StridedMatrix::Of(const Tensor& t) {
  APOTS_CHECK_EQ(t.rank(), 2u);
  return {t.data(), t.rows(), t.cols(), t.cols(), 1};
}

StridedMatrix StridedMatrix::TransposeOf(const Tensor& t) {
  APOTS_CHECK_EQ(t.rank(), 2u);
  return {t.data(), t.cols(), t.rows(), 1, t.cols()};
}

StridedMatrix StridedMatrix::Ones(size_t n) {
  static const float kOne = 1.0f;
  return {&kOne, 1, n, 0, 0};
}

PreparedRhs PrepareSumRhs(const StridedMatrix& b, Tensor* storage) {
  const size_t k = b.rows, n = b.cols;
  if (kPanelsMatchTiles) {
    storage->ResetShape({simd::PanelFloats(k, n, simd::kNrSum)});
    simd::PackPanels(b.data, b.rs, b.cs, k, n, simd::kNrSum, storage->data());
    return {storage->data(), k, n, simd::kNrSum};
  }
  if (b.cs == 1 && b.rs == n) return {b.data, k, n, 0};
  storage->ResetShape({k, n});
  float* dst = storage->data();
  for (size_t kk = 0; kk < k; ++kk) {
    for (size_t j = 0; j < n; ++j) {
      dst[kk * n + j] = b.data[kk * b.rs + j * b.cs];
    }
  }
  return {dst, k, n, 0};
}

void AddProduct(const StridedMatrix& a, const PreparedRhs& b, Tensor* out) {
  APOTS_CHECK_EQ(a.cols, b.k);
  APOTS_CHECK(out->rank() == 2 ? out->rows() == a.rows && out->cols() == b.n
                               : out->rank() == 1 && a.rows == 1 &&
                                     out->size() == b.n)
      << "AddProduct: out is " << out->ShapeString();
  if (b.nr != 0) {
    APOTS_CHECK_EQ(b.nr, simd::kNrSum);
    simd::AddPanels(a.data, a.rs, a.cs, b.data, a.rows, b.k, b.n,
                    out->data());
    return;
  }
  const float* pa = a.data;
  const size_t rs = a.rs, cs = a.cs;
  RunTiles<true>(
      [pa, rs, cs](size_t i, size_t kk) { return pa[i * rs + kk * cs]; },
      b.data, out->data(), a.rows, b.k, b.n);
}

void MatmulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(b.rank(), 2u);
  APOTS_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  APOTS_CHECK_EQ(out->rank(), 2u);
  APOTS_CHECK_EQ(out->rows(), m);
  APOTS_CHECK_EQ(out->cols(), n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  if (UsePanels(m)) {
    simd::GemmStrided(pa, k, 1, pb, n, 1, po, m, k, n);
    return;
  }
  MatmulTiles(pa, k, pb, po, m, k, n);
}

PreparedRhs PrepareRhs(const Tensor& b, size_t rows, Tensor* storage) {
  APOTS_CHECK_EQ(b.rank(), 2u);
  const size_t k = b.rows(), n = b.cols();
  if (!UsePanels(rows)) return {b.data(), k, n, 0};
  return PackRhs(b.data(), n, 1, k, n, storage);
}

PreparedRhs PrepareRhsTransposed(const Tensor& b, size_t rows,
                                 Tensor* storage) {
  APOTS_CHECK_EQ(b.rank(), 2u);
  const size_t n = b.rows(), k = b.cols();
  if (UsePanels(rows)) return PackRhs(b.data(), 1, k, k, n, storage);
  storage->ResetShape({k, n});
  TransposeRhs(b.data(), k, k, n, storage->data());
  return {storage->data(), k, n, 0};
}

void MatmulInto(const Tensor& a, const PreparedRhs& b, Tensor* out) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(a.cols(), b.k);
  const size_t m = a.rows(), k = b.k, n = b.n;
  APOTS_CHECK_EQ(out->rank(), 2u);
  APOTS_CHECK_EQ(out->rows(), m);
  APOTS_CHECK_EQ(out->cols(), n);
  // The row count that prepared b must pick the same kernel as this one.
  APOTS_CHECK_EQ(UsePanels(m), b.nr != 0);
  if (b.nr != 0) {
    simd::RunPanels(a.data(), k, 1, b.data, b.nr, m, k, n, out->data());
    return;
  }
  MatmulTiles(a.data(), k, b.data, out->data(), m, k, n);
}

void Transpose12Into(const Tensor& a, Tensor* out) {
  APOTS_CHECK_EQ(a.rank(), 3u);
  const size_t n = a.dim(0), rows = a.dim(1), cols = a.dim(2);
  APOTS_CHECK_EQ(out->rank(), 3u);
  APOTS_CHECK_EQ(out->dim(0), n);
  APOTS_CHECK_EQ(out->dim(1), cols);
  APOTS_CHECK_EQ(out->dim(2), rows);
  const float* pa = a.data();
  float* po = out->data();
  for (size_t i = 0; i < n; ++i) {
    const float* src = pa + i * rows * cols;
    float* dst = po + i * rows * cols;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
    }
  }
}

Tensor Transpose(const Tensor& a) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  const size_t m = a.rows(), n = a.cols();
  Tensor out({n, m});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) out.At(j, i) = a.At(i, j);
  }
  return out;
}

Tensor Transpose12(const Tensor& a) {
  APOTS_CHECK_EQ(a.rank(), 3u);
  Tensor out({a.dim(0), a.dim(2), a.dim(1)});
  Transpose12Into(a, &out);
  return out;
}

void AddRowBias(Tensor* matrix, const Tensor& bias) {
  APOTS_CHECK_EQ(matrix->rank(), 2u);
  APOTS_CHECK_EQ(bias.size(), matrix->cols());
  const size_t m = matrix->rows(), n = matrix->cols();
  float* pm = matrix->data();
  const float* pb = bias.data();
  GlobalPool().ParallelFor(0, m, RowGrain(n),
                           [&](size_t r0, size_t r1, size_t) {
                             for (size_t i = r0; i < r1; ++i) {
                               float* row = pm + i * n;
                               for (size_t j = 0; j < n; ++j) row[j] += pb[j];
                             }
                           });
}

void LstmCell(const Tensor& gates_x, const Tensor& gates_h, const Tensor& bias,
              const Tensor& c_prev, Tensor* c, Tensor* h, Tensor* act,
              Tensor* tanh_c) {
  APOTS_CHECK_EQ(c_prev.rank(), 2u);
  APOTS_CHECK_EQ(gates_x.rank(), 2u);
  const size_t rows = c_prev.rows(), hidden = c_prev.cols();
  APOTS_CHECK_EQ(gates_x.rows(), rows);
  APOTS_CHECK_EQ(gates_x.cols(), 4 * hidden);
  CheckSameShape(gates_x, gates_h, "LstmCell");
  APOTS_CHECK_EQ(bias.size(), 4 * hidden);
  CheckSameShape(*c, c_prev, "LstmCell");
  CheckSameShape(*h, c_prev, "LstmCell");
  if (act != nullptr) CheckSameShape(*act, gates_x, "LstmCell");
  if (tanh_c != nullptr) CheckSameShape(*tanh_c, c_prev, "LstmCell");
  simd::PickLstmCellKernel()(
      {gates_x.data(), gates_h.data(), bias.data(), c_prev.data(), rows, hidden,
       act == nullptr ? nullptr : act->data(), c->data(),
       tanh_c == nullptr ? nullptr : tanh_c->data(), h->data()});
}

void LstmCellBackward(const Tensor& act, const Tensor& tanh_c,
                      const Tensor& c_prev, const Tensor& dh_next,
                      const float* grad_h, size_t grad_h_ld, Tensor* dc,
                      Tensor* dgates) {
  APOTS_CHECK_EQ(c_prev.rank(), 2u);
  const size_t rows = c_prev.rows(), hidden = c_prev.cols();
  APOTS_CHECK_EQ(act.rank(), 2u);
  APOTS_CHECK_EQ(act.rows(), rows);
  APOTS_CHECK_EQ(act.cols(), 4 * hidden);
  CheckSameShape(tanh_c, c_prev, "LstmCellBackward");
  CheckSameShape(dh_next, c_prev, "LstmCellBackward");
  CheckSameShape(*dc, c_prev, "LstmCellBackward");
  CheckSameShape(*dgates, act, "LstmCellBackward");
  simd::PickLstmCellGradKernel()({act.data(), tanh_c.data(), c_prev.data(),
                                  dh_next.data(), grad_h, grad_h_ld, rows,
                                  hidden, dc->data(), dgates->data()});
}

void FillUniform(Tensor* t, apots::Rng* rng, float lo, float hi) {
  float* p = t->data();
  for (size_t i = 0; i < t->size(); ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
}

void FillNormal(Tensor* t, apots::Rng* rng, float mean, float stddev) {
  float* p = t->data();
  for (size_t i = 0; i < t->size(); ++i) {
    p[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
}

void Im2ColInto(const Tensor& input, size_t height, size_t width,
                size_t kernel, Tensor* out) {
  APOTS_CHECK_EQ(input.rank(), 2u);
  APOTS_CHECK_EQ(kernel % 2, 1u);
  const size_t channels = input.rows();
  const size_t plane = height * width;
  APOTS_CHECK_GT(plane, 0u);
  APOTS_CHECK_EQ(input.cols() % plane, 0u);
  const size_t batch = input.cols() / plane;
  const size_t taps = kernel * kernel;
  APOTS_CHECK_EQ(out->rank(), 2u);
  APOTS_CHECK_EQ(out->rows(), channels * taps);
  APOTS_CHECK_EQ(out->cols(), input.cols());
  float* pc = out->data();
  const float* pi = input.data();
  const long w = static_cast<long>(width);
  // Each output row is the sweep of one (channel, ki, kj) tap over every
  // sample: disjoint writes, so rows parallelize freely. A sample's block
  // of the row is its plane shifted by the tap: one bulk copy of the rows
  // the tap reads, then zeros where it reads padding (whole rows above or
  // below, and the columns the shift wrapped into a neighbouring row).
  GlobalPool().ParallelFor(
      0, channels * taps, RowGrain(input.cols()),
      [&](size_t row0, size_t row1, size_t) {
        for (size_t row = row0; row < row1; ++row) {
          const size_t c = row / taps;
          const SameTap tap = SameConvTap((row % taps) / kernel,
                                          row % kernel, kernel, height, width);
          for (size_t n = 0; n < batch; ++n) {
            const float* src = pi + (c * batch + n) * plane;
            float* dst = pc + row * input.cols() + n * plane;
            if (tap.i_lo == tap.i_hi || tap.j_lo == tap.j_hi) {
              std::fill(dst, dst + plane, 0.0f);
              continue;
            }
            const long begin = tap.i_lo * w + tap.j_lo;
            const long end = tap.i_hi * w - (w - tap.j_hi);
            std::fill(dst, dst + begin, 0.0f);
            std::copy(src + begin + tap.shift, src + end + tap.shift,
                      dst + begin);
            std::fill(dst + end, dst + plane, 0.0f);
            for (long i = tap.i_lo; i < tap.i_hi; ++i) {
              std::fill(dst + i * w, dst + i * w + tap.j_lo, 0.0f);
              std::fill(dst + i * w + tap.j_hi, dst + (i + 1) * w, 0.0f);
            }
          }
        }
      });
}

Tensor Im2Col(const Tensor& input, size_t height, size_t width,
              size_t kernel) {
  APOTS_CHECK_EQ(input.rank(), 2u);
  Tensor columns({input.rows() * kernel * kernel, input.cols()});
  Im2ColInto(input, height, width, kernel, &columns);
  return columns;
}

Tensor Col2Im(const Tensor& columns, size_t channels, size_t height,
              size_t width, size_t kernel) {
  APOTS_CHECK_EQ(columns.rank(), 2u);
  Tensor image({channels, columns.cols()});
  Col2ImInto(columns, height, width, kernel, &image);
  return image;
}

void Col2ImInto(const Tensor& columns, size_t height, size_t width,
                size_t kernel, Tensor* out) {
  APOTS_CHECK_EQ(columns.rank(), 2u);
  APOTS_CHECK_EQ(kernel % 2, 1u);
  const size_t taps = kernel * kernel;
  const size_t plane = height * width;
  APOTS_CHECK_GT(plane, 0u);
  APOTS_CHECK_EQ(out->rank(), 2u);
  const size_t channels = out->rows();
  APOTS_CHECK_EQ(columns.rows(), channels * taps);
  APOTS_CHECK_EQ(out->cols(), columns.cols());
  APOTS_CHECK_EQ(columns.cols() % plane, 0u);
  const size_t batch = columns.cols() / plane;
  const float* pc = columns.data();
  float* pi = out->data();
  const long w = static_cast<long>(width);
  // Parallel over (channel, sample) planes: each plane gathers only its own
  // taps, in ascending (ki, kj) order, so planes are independent and each
  // keeps its serial accumulation order.
  GlobalPool().ParallelFor(
      0, channels * batch, RowGrain(taps * plane),
      [&](size_t u0, size_t u1, size_t) {
        for (size_t u = u0; u < u1; ++u) {
          const size_t c = u / batch;
          float* dst = pi + u * plane;
          std::fill(dst, dst + plane, 0.0f);
          for (size_t t = 0; t < taps; ++t) {
            const SameTap tap =
                SameConvTap(t / kernel, t % kernel, kernel, height, width);
            const float* src =
                pc + (c * taps + t) * columns.cols() + (u % batch) * plane;
            for (long i = tap.i_lo; i < tap.i_hi; ++i) {
              for (long j = tap.j_lo; j < tap.j_hi; ++j) {
                dst[i * w + j + tap.shift] += src[i * w + j];
              }
            }
          }
        }
      });
}

}  // namespace apots::tensor
