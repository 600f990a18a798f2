#ifndef APOTS_TENSOR_TENSOR_OPS_H_
#define APOTS_TENSOR_TENSOR_OPS_H_

#include <functional>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace apots::tensor {

/// Elementwise c = a + b (shapes must match).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise c = a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) c = a * b.
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a * scalar.
Tensor Scale(const Tensor& a, float scalar);

/// In-place a += b (shapes must match).
void AddInPlace(Tensor* a, const Tensor& b);
/// In-place a += b * scalar (axpy).
void Axpy(Tensor* a, const Tensor& b, float scalar);

/// Selects the implementation behind the GEMM/im2col kernels. kBlocked
/// (the default) is the cache-blocked path parallelized over row ranges
/// of the global ThreadPool; kReference is the original serial
/// triple-loop path, kept as the ground truth for kernel tests and as
/// the pre-parallel baseline arm of the perf benches. The blocked
/// kernels preserve the reference per-element accumulation order, so
/// results are bit-identical across modes and across pool sizes.
///
/// kSimd routes the matmul family through explicit packed-panel
/// microkernels with runtime CPUID dispatch (AVX-512 > AVX2 > scalar; see
/// cpu_features.h). Each output element is still one k-ascending FMA
/// chain, so kSimd is bit-reproducible across pool sizes and row
/// partitions for a fixed ISA — but FMA contraction differences vs the
/// scalar chains mean kSimd matches the other modes only within a small
/// relative epsilon (DESIGN.md §15). Im2Col is a copy kernel with no
/// arithmetic; kSimd uses the blocked path for it unchanged.
enum class KernelMode { kBlocked, kReference, kSimd };
void SetKernelMode(KernelMode mode);
KernelMode GetKernelMode();
/// "blocked" / "reference" / "simd".
const char* KernelModeName(KernelMode mode);

/// Matrix product of rank-2 tensors: [m,k] x [k,n] -> [m,n]. MatmulInto
/// on a fresh tensor, so training and inference share one dispatch.
Tensor Matmul(const Tensor& a, const Tensor& b);

/// a^T b without materializing the transpose: [k,m]^T x [k,n] -> [m,n].
Tensor MatmulTransposeA(const Tensor& a, const Tensor& b);

/// a b^T: [m,k] x [n,k]^T -> [m,n]. The blocked path materializes b^T
/// once so the inner loop streams instead of running a latency-bound
/// scalar dot product; the accumulation order per output element is
/// unchanged.
Tensor MatmulTransposeB(const Tensor& a, const Tensor& b);

/// Serial triple-loop ground-truth kernels (see KernelMode::kReference).
namespace reference {
Tensor Matmul(const Tensor& a, const Tensor& b);
Tensor MatmulTransposeA(const Tensor& a, const Tensor& b);
Tensor MatmulTransposeB(const Tensor& a, const Tensor& b);
Tensor Im2Col(const Tensor& input, size_t kh, size_t kw, size_t pad);
}  // namespace reference

/// Workspace-friendly kernel variants: write into a preallocated output of
/// the correct shape instead of returning a fresh tensor; `out` contents
/// may be dirty (every element is overwritten). Matmul, Im2Col and
/// Transpose12 are these on a fresh tensor.
void MatmulInto(const Tensor& a, const Tensor& b, Tensor* out);
void Im2ColInto(const Tensor& input, size_t kh, size_t kw, size_t pad,
                Tensor* out);
void Transpose12Into(const Tensor& a, Tensor* out);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Swaps the last two axes of a rank-3 tensor: [n, a, b] -> [n, b, a].
/// Used to turn a [batch, rows, time] feature matrix into the
/// [batch, time, rows] sequence layout the LSTM expects.
Tensor Transpose12(const Tensor& a);

/// Adds a length-n bias row-wise to an [m,n] matrix.
void AddRowBias(Tensor* matrix, const Tensor& bias);

/// Column-wise sum of an [m,n] matrix -> length-n vector (bias gradient).
Tensor SumRows(const Tensor& matrix);

/// Sum / mean / min / max over all elements.
float Sum(const Tensor& a);
float Mean(const Tensor& a);
float MinValue(const Tensor& a);
float MaxValue(const Tensor& a);

/// Applies `fn` elementwise, returning a new tensor.
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);

/// Fills with uniform / normal random values.
void FillUniform(Tensor* t, apots::Rng* rng, float lo, float hi);
void FillNormal(Tensor* t, apots::Rng* rng, float mean, float stddev);

/// im2col for 2-D convolution with stride 1 and symmetric zero padding.
/// Input: [channels, height, width]. Output: [channels*kh*kw, out_h*out_w]
/// where out_h = height + 2*pad - kh + 1 (and similarly for width). Each
/// output column holds the receptive field of one output pixel.
Tensor Im2Col(const Tensor& input, size_t kh, size_t kw, size_t pad);

/// Inverse scatter-add of Im2Col: accumulates the column matrix back into a
/// [channels, height, width] tensor (gradient of Im2Col).
Tensor Col2Im(const Tensor& columns, size_t channels, size_t height,
              size_t width, size_t kh, size_t kw, size_t pad);

}  // namespace apots::tensor

#endif  // APOTS_TENSOR_TENSOR_OPS_H_
