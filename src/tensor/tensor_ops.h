#ifndef APOTS_TENSOR_TENSOR_OPS_H_
#define APOTS_TENSOR_TENSOR_OPS_H_

#include "tensor/tensor.h"
#include "util/rng.h"

namespace apots::tensor {

/// Elementwise c = a + b (shapes must match).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a * scalar.
Tensor Scale(const Tensor& a, float scalar);

/// In-place a += b (shapes must match).
void AddInPlace(Tensor* a, const Tensor& b);
/// In-place a += b * scalar (axpy).
void Axpy(Tensor* a, const Tensor& b, float scalar);

/// How the matmul family (Matmul/MatmulInto, MatmulTransposeA/B) picks a
/// kernel in this build; fixed at compile time, with no setter. Products
/// with fewer than 16 rows run register tiles; with kTilesAndPanels,
/// products of 16 rows or more run the packed-panel microkernels of
/// simd_kernels.h instead (runtime ISA dispatch, see cpu_features.h),
/// which win there and lose below. Both keep the reference kernels'
/// per-element k-ascending multiply-add chain, so every product returns
/// the reference's bits. The panels always fuse multiply-adds and the
/// tiles fuse them only where the build targets FMA, so builds without
/// FMA (APOTS_NATIVE_ARCH=OFF) are kTiles: a row's bits never depend on
/// the batch it rides in.
enum class KernelMode { kTiles, kTilesAndPanels };
KernelMode GetKernelMode();
/// "tiles" / "tiles+panels".
const char* KernelModeName(KernelMode mode);

/// Matrix product of rank-2 tensors: [m,k] x [k,n] -> [m,n]. MatmulInto
/// on a fresh tensor, so training and inference share one dispatch.
Tensor Matmul(const Tensor& a, const Tensor& b);

/// a^T b without materializing the transpose: [k,m]^T x [k,n] -> [m,n].
Tensor MatmulTransposeA(const Tensor& a, const Tensor& b);

/// a b^T: [m,k] x [n,k]^T -> [m,n]. The tiles materialize b^T once so
/// the inner loop streams instead of running a latency-bound scalar dot
/// product; the accumulation order per output element is unchanged.
Tensor MatmulTransposeB(const Tensor& a, const Tensor& b);

/// MatmulTransposeA into a preshaped [a.cols(), b.cols()] `out`.
void MatmulTransposeAInto(const Tensor& a, const Tensor& b, Tensor* out);

/// Serial triple-loop kernels: the ground truth the tests hold the
/// dispatched kernels to, bitwise.
namespace reference {
Tensor Matmul(const Tensor& a, const Tensor& b);
Tensor MatmulTransposeA(const Tensor& a, const Tensor& b);
Tensor MatmulTransposeB(const Tensor& a, const Tensor& b);
Tensor Im2Col(const Tensor& input, size_t kh, size_t kw, size_t pad);
}  // namespace reference

/// A right operand prepared once for a run of products that share it, such
/// as an LSTM's gate weights over its timesteps. PrepareRhs picks the
/// kernel from the row count of the left operands to come, as MatmulInto
/// does: where that picks the panels, it packs B at the panel width `nr`
/// of the kernel the ISA ladder selects, and each product skips its own
/// pack; otherwise it holds B row-major (nr = 0) and the products run the
/// tiles. Products against it return MatmulInto's bits, or
/// MatmulTransposeB's for PrepareRhsTransposed. `data` points into B or
/// into the storage tensor it was prepared in, and is valid while both
/// are unchanged. Callers prepare once per call, not once per weight
/// update: optimizer steps, checkpoint loads and rollbacks rewrite the
/// weights, and one O(k*n) pack per call is small beside its products.
struct PreparedRhs {
  const float* data = nullptr;
  size_t k = 0;
  size_t n = 0;
  size_t nr = 0;
};

/// Prepares b ([k, n]) for products a b with `rows`-row left operands,
/// packing into `storage` (reshaped) when the panels run.
PreparedRhs PrepareRhs(const Tensor& b, size_t rows, Tensor* storage);
/// Prepares b^T for products a b^T with `rows`-row left operands, where b
/// is [n, k]: packed into `storage` for the panels, else b^T materialized
/// there for the tiles (the transpose MatmulTransposeB makes per call).
PreparedRhs PrepareRhsTransposed(const Tensor& b, size_t rows,
                                 Tensor* storage);
/// out = a b for a prepared b; `out` is preshaped to [a.rows(), b.n]. a
/// must have a row count that picks the kernel b was prepared for, and a
/// packed b must run under the panel width it was packed at (a forced ISA
/// rung that changes nr fails a check).
void MatmulInto(const Tensor& a, const PreparedRhs& b, Tensor* out);

/// Workspace-friendly kernel variants: write into a preallocated output of
/// the correct shape instead of returning a fresh tensor; `out` contents
/// may be dirty (every element is overwritten). Matmul, Im2Col and
/// Transpose12 are these on a fresh tensor.
void MatmulInto(const Tensor& a, const Tensor& b, Tensor* out);
void Im2ColInto(const Tensor& input, size_t height, size_t width,
                size_t kernel, Tensor* out);
void Transpose12Into(const Tensor& a, Tensor* out);

/// A rank-2 operand read in place: element (i, j) of the rows x cols
/// matrix is data[i*rs + j*cs]. Blocks of a tensor's columns, transposes
/// and a row of ones need no copy.
struct StridedMatrix {
  const float* data;
  size_t rows, cols, rs, cs;

  /// A row-major tensor.
  static StridedMatrix Of(const Tensor& t);
  /// The transpose of a row-major tensor.
  static StridedMatrix TransposeOf(const Tensor& t);
  /// A 1 x n row of ones: a product with it sums B's rows in order.
  static StridedMatrix Ones(size_t n);
};

/// Prepares b ([k, n]) as the right operand of AddProduct, into `storage`
/// when it must be copied. Where the build fuses (FMA), it is packed into
/// panels of simd::kNrSum columns, which the accumulating kernel runs at
/// every row count; otherwise it is held row-major for the tiles (copied
/// only when b is not already).
PreparedRhs PrepareSumRhs(const StridedMatrix& b, Tensor* storage);

/// out += a b, the one kernel of every weight and bias gradient: each
/// output element's k-ascending multiply-add chain from zero (the chain
/// MatmulInto computes) is added into out, as out + chain. A sum of
/// per-block products, such as a layer's gradient over time steps or
/// samples, is one call per block in the order they are to be added. The
/// bits are AddInPlace(out, Matmul(a, b)) at any row count: FMA builds
/// run the accumulating panels, others the tiles, neither fused unless
/// the other kernels are. Parallel over out's rows only, so every pool
/// size returns the same bits. `out` is [a.rows, b.n], or [b.n] (a bias)
/// for a one-row a, and a.cols is b.k.
void AddProduct(const StridedMatrix& a, const PreparedRhs& b, Tensor* out);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Swaps the last two axes of a rank-3 tensor: [n, a, b] -> [n, b, a].
/// Used to turn a [batch, rows, time] feature matrix into the
/// [batch, time, rows] sequence layout the LSTM expects.
Tensor Transpose12(const Tensor& a);

/// Adds a length-n bias row-wise to an [m,n] matrix.
void AddRowBias(Tensor* matrix, const Tensor& bias);

/// One LSTM cell step, the body both nn::Lstm forwards share. gates_x and
/// gates_h are the [rows, 4H] x- and h-products in gate order i|f|g|o,
/// bias is [4H] and c_prev is [rows, H]. Writes c and h ([rows, H]), and
/// when non-null the activated gates `act` ([rows, 4H]) and `tanh_c`
/// ([rows, H]), which Backward reads. c may be c_prev and act may be
/// gates_x. Dispatches on DetectedIsa(): the scalar rung runs the one-lane
/// form and the AVX2 and AVX-512 rungs run eight lanes with one-lane
/// tails; every rung returns the same bits (simd_kernels.h). Runs on the
/// calling thread: a 64-row step is tens of microseconds.
void LstmCell(const Tensor& gates_x, const Tensor& gates_h, const Tensor& bias,
              const Tensor& c_prev, Tensor* c, Tensor* h, Tensor* act = nullptr,
              Tensor* tanh_c = nullptr);

/// One LSTM cell step backward, the body of nn::Lstm's BPTT loop. act
/// ([rows, 4H], i|f|g|o), tanh_c and c_prev ([rows, H]) are the step's
/// record. The step's dh is dh_next + the step's output gradient, whose
/// rows start at grad_h and lie grad_h_ld floats apart; with a null grad_h
/// it is dh_next. `dc` holds the cell gradient from step t + 1 and is
/// overwritten with the one for step t - 1; `dgates` ([rows, 4H]) gets the
/// pre-activation gate gradients. The arithmetic is unfused and in one
/// fixed order (simd::LstmCellGradArgs), so every rung of the DetectedIsa()
/// ladder returns the same bits. Runs on the calling thread.
void LstmCellBackward(const Tensor& act, const Tensor& tanh_c,
                      const Tensor& c_prev, const Tensor& dh_next,
                      const float* grad_h, size_t grad_h_ld, Tensor* dc,
                      Tensor* dgates);

/// Fills with uniform / normal random values.
void FillUniform(Tensor* t, apots::Rng* rng, float lo, float hi);
void FillNormal(Tensor* t, apots::Rng* rng, float mean, float stddev);

/// im2col for a 2-D convolution with stride 1 and "same" zero padding (an
/// odd `kernel`, padded by kernel / 2, so the output keeps the input's
/// height x width), over a channel-major batch. Input:
/// [channels, batch*height*width], row c holding channel c of every sample
/// in turn, each a row-major height x width plane (the layout a conv
/// product writes). Output: [channels*kernel*kernel, batch*height*width].
/// Row (c*kernel + ki)*kernel + kj holds tap (ki, kj) of channel c, and
/// column n*height*width + p the receptive field of sample n's output
/// pixel p, so each sample's block of columns is reference::Im2Col of that
/// sample.
Tensor Im2Col(const Tensor& input, size_t height, size_t width,
              size_t kernel);

/// Inverse scatter-add of Im2Col (its gradient): accumulates the column
/// matrix [channels*kernel*kernel, batch*height*width] back into a
/// channel-major [channels, batch*height*width] tensor. Each element sums
/// its taps in ascending (ki, kj) order, starting from zero. Col2ImInto
/// writes a preshaped, possibly dirty `out`.
Tensor Col2Im(const Tensor& columns, size_t channels, size_t height,
              size_t width, size_t kernel);
void Col2ImInto(const Tensor& columns, size_t height, size_t width,
                size_t kernel, Tensor* out);

}  // namespace apots::tensor

#endif  // APOTS_TENSOR_TENSOR_OPS_H_
