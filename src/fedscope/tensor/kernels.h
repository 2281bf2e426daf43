#ifndef FEDSCOPE_TENSOR_KERNELS_H_
#define FEDSCOPE_TENSOR_KERNELS_H_

#include <cstdint>

namespace fedscope {
namespace kernels {

// ---------------------------------------------------------------------------
// Deterministic single-core BLAS-lite. Raw-pointer kernels behind Tensor ops
// and the NN layers; this translation unit is compiled with the widest SIMD
// the host supports (see src/CMakeLists.txt) but with FP contraction off.
//
// Determinism contract: every output element is a sum over the reduction
// index k in ascending order, accumulated in float, with no fused
// multiply-add. Vectorizing across *output* elements never reorders a
// per-element chain, so results are bit-identical across vector widths
// (SSE2/AVX2/AVX-512) and match the scalar *Reference kernels exactly.
//
// Tiling: C is computed in 8-row blocks; a block's columns go to 32-wide
// tiles, then at most one 16- and one 8-wide tile, then the last n % 8
// columns through an 8-wide tile over a zero-padded panel. Rows past the
// last full block use a runtime-extent edge tile. Every tile starts each
// element's chain at zero and adds it to c once, after the k loop.
//
// GemmTransB first transposes b into a thread_local [k, n] panel, in 8x8
// blocks of 8-float vector shuffles with scalar edges; packing moves values
// untouched, so the chains are Gemm's.
//
// Callers above these kernels keep the contract too: Conv2d reuses its
// forward's columns in Backward, and EvaluateClassifier runs its forward in
// 32-row chunks (eval-mode layers are row-independent), both bit-identical
// to lowering again and to one whole-set forward. Model::Backward stops at
// the first layer with parameters, whose parameter gradients are the same
// floats a full backward accumulates.
// ---------------------------------------------------------------------------

/// c += a @ b. a: [m, k] row-major, b: [k, n] row-major, c: [m, n] row-major.
/// Caller zero-initializes c for a plain product.
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c);

/// c += a^T @ b. a: [k, m] row-major (so a^T is [m, k]), b: [k, n], c: [m, n].
void GemmTransA(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c);

/// c += a @ b^T. a: [m, k], b: [n, k] row-major (so b^T is [k, n]), c: [m, n].
void GemmTransB(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c);

/// Unblocked scalar implementations of the same accumulation order; the
/// equivalence oracle for the tiled kernels (tests assert exact equality).
void GemmReference(int64_t m, int64_t n, int64_t k, const float* a,
                   const float* b, float* c);
void GemmTransAReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c);
void GemmTransBReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c);

// ---------------------------------------------------------------------------
// Convolution lowering (stride 1, symmetric zero padding).
// ---------------------------------------------------------------------------

/// Output spatial extent of a stride-1 convolution.
inline int64_t ConvOutDim(int64_t in, int64_t kernel, int64_t padding) {
  return in + 2 * padding - kernel + 1;
}

/// Lowers one [channels, height, width] image to a [channels*kernel*kernel,
/// out_h*out_w] column matrix (zero padding materialized as zeros). `cols`
/// must hold channels*kernel*kernel*out_h*out_w floats; fully overwritten.
void Im2Col(const float* im, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t padding, float* cols);

/// Inverse scatter of Im2Col: accumulates the column matrix back into the
/// [channels, height, width] image (`im` += ...; padding cells dropped).
void Col2Im(const float* cols, int64_t channels, int64_t height,
            int64_t width, int64_t kernel, int64_t padding, float* im);

/// Direct 7-loop convolution kernels (the pre-im2col implementation), kept
/// as the numerical reference for Conv2d equivalence tests. Accumulates in
/// double like the original. y: [out_c, out_h*out_w] for one image.
void Conv2dForwardReference(const float* x, const float* weight,
                            const float* bias, int64_t in_c, int64_t in_h,
                            int64_t in_w, int64_t out_c, int64_t kernel,
                            int64_t padding, float* y);

/// Direct convolution backward for one image: accumulates into weight_grad
/// [out_c, in_c, k, k], bias_grad [out_c] and grad_in [in_c, in_h, in_w].
/// grad_out: [out_c, out_h*out_w].
void Conv2dBackwardReference(const float* x, const float* weight,
                             const float* grad_out, int64_t in_c,
                             int64_t in_h, int64_t in_w, int64_t out_c,
                             int64_t kernel, int64_t padding,
                             float* weight_grad, float* bias_grad,
                             float* grad_in);

// ---------------------------------------------------------------------------
// Pooling.
// ---------------------------------------------------------------------------

/// 2x2, stride-2 max pooling over `planes` row-major [height, width] planes
/// (NCHW with planes = batch * channels; an odd last row or column is
/// dropped). y: [planes, height / 2, width / 2]; argmax[o] receives the flat
/// index into x of the value y[o] copies. Each window is visited (0,0),
/// (0,1), (1,0), (1,1) with strict `>`, so ties keep the earliest element
/// (+0 before -0) and a NaN neither wins a later slot nor is replaced from
/// the first. Rows 4 wide or a multiple of 8 wide are compared 8 windows
/// per vector compare-and-select; any other shape runs the scalar loop.
/// Either way the outputs and indices equal MaxPool2x2Reference's bit for
/// bit.
void MaxPool2x2(const float* x, int64_t planes, int64_t height,
                int64_t width, float* y, int64_t* argmax);

/// One window at a time, in the same visit order: the oracle for
/// MaxPool2x2 (tests assert exact equality of values and indices).
void MaxPool2x2Reference(const float* x, int64_t planes, int64_t height,
                         int64_t width, float* y, int64_t* argmax);

// ---------------------------------------------------------------------------
// Fused elementwise helpers (pointer loops the compiler vectorizes).
// ---------------------------------------------------------------------------

/// y[i] = max(x[i], 0).
void ReluForward(const float* x, float* y, int64_t n);
/// grad[i] = x[i] > 0 ? grad[i] : 0 (in place; x is the forward input).
void ReluBackward(const float* x, float* grad, int64_t n);
/// y[i] = tanh(x[i]).
void TanhForward(const float* x, float* y, int64_t n);
/// grad[i] *= 1 - y[i]^2 (in place; y is the forward output).
void TanhBackward(const float* y, float* grad, int64_t n);
/// y[r*cols + c] += bias[c] for every row r (Linear bias).
void AddColBias(float* y, const float* bias, int64_t rows, int64_t cols);
/// y[r*cols + c] += bias[r] for every column c (Conv2d bias, rows=channels).
void AddRowBias(float* y, const float* bias, int64_t rows, int64_t cols);
/// out[c] += sum_r x[r*cols + c], rows in ascending order (Linear bias grad).
void ColSumsAccum(const float* x, int64_t rows, int64_t cols, float* out);
/// out[r] += sum_c x[r*cols + c], cols in ascending order (Conv2d bias grad).
void RowSumsAccum(const float* x, int64_t rows, int64_t cols, float* out);

}  // namespace kernels
}  // namespace fedscope

#endif  // FEDSCOPE_TENSOR_KERNELS_H_
