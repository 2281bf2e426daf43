#include "fedscope/tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace fedscope {
namespace kernels {
namespace {

// Register-blocked micro-tile: MR rows of C by kNr columns, accumulators
// held in registers across the whole k loop. A is addressed through strides
// (as_i, as_k) so the same kernel serves Gemm (as_i=k, as_k=1) and
// GemmTransA (as_i=1, as_k=m). Accumulation is ascending-k float adds per
// output element — identical to the scalar reference chain.
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 32;

void MicroTile(const float* __restrict__ a, int64_t as_i, int64_t as_k,
               const float* __restrict__ b, int64_t ldb,
               float* __restrict__ c, int64_t ldc, int64_t k) {
  float acc[kMr][kNr];
  for (int64_t r = 0; r < kMr; ++r) {
    for (int64_t j = 0; j < kNr; ++j) acc[r][j] = 0.0f;
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    float bv[kNr];
    for (int64_t j = 0; j < kNr; ++j) bv[j] = brow[j];
    for (int64_t r = 0; r < kMr; ++r) {
      const float av = a[r * as_i + kk * as_k];
      for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * bv[j];
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    float* crow = c + r * ldc;
    for (int64_t j = 0; j < kNr; ++j) crow[j] += acc[r][j];
  }
}

// Edge tile with runtime extents mr <= kMr, nr <= kNr; same chain order.
void MicroTileEdge(const float* __restrict__ a, int64_t as_i, int64_t as_k,
                   const float* __restrict__ b, int64_t ldb,
                   float* __restrict__ c, int64_t ldc, int64_t k, int64_t mr,
                   int64_t nr) {
  float acc[kMr][kNr] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = a[r * as_i + kk * as_k];
      for (int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] += acc[r][j];
  }
}

// Eight floats as one GCC vector: one ymm register under AVX2/AVX-512, two
// xmm registers under SSE2. Lane arithmetic is plain IEEE float, so a
// vector multiply followed by a separate vector add performs exactly the
// scalar reference's `acc += a * b` per lane.
typedef float Vec8 __attribute__((vector_size(8 * sizeof(float))));

inline Vec8 LoadVec8(const float* p) {
  Vec8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec8(float* p, Vec8 v) { std::memcpy(p, &v, sizeof(v)); }

// Narrow micro-tile: kMr rows of C by 8*kVecs columns, for the column
// remainder a 32-wide tile leaves (conv lowerings are 9 to 72 wide). Written
// with vector types: a plain float array of this width ran about 10x slower
// under gcc 12.2. The chain per element is the same as MicroTile's. With nr
// below 8*kVecs only the first nr columns of C are written (b must still
// hold 8*kVecs readable columns: the caller passes a zero-padded panel).
template <int kVecs>
void MicroTileNarrow(const float* __restrict__ a, int64_t as_i, int64_t as_k,
                     const float* __restrict__ b, int64_t ldb,
                     float* __restrict__ c, int64_t ldc, int64_t k,
                     int64_t nr = 8 * kVecs) {
  Vec8 acc[kMr][kVecs] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    Vec8 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) bv[v] = LoadVec8(brow + 8 * v);
    for (int64_t r = 0; r < kMr; ++r) {
      const float av = a[r * as_i + kk * as_k];
      for (int v = 0; v < kVecs; ++v) {
        const Vec8 product = av * bv[v];
        acc[r][v] = acc[r][v] + product;
      }
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    float* crow = c + r * ldc;
    if (nr == 8 * kVecs) {
      for (int v = 0; v < kVecs; ++v) {
        StoreVec8(crow + 8 * v, LoadVec8(crow + 8 * v) + acc[r][v]);
      }
    } else {
      float lanes[8 * kVecs];
      std::memcpy(lanes, acc[r], sizeof(lanes));
      for (int64_t j = 0; j < nr; ++j) crow[j] += lanes[j];
    }
  }
}

// The last n % 8 columns of row-major b [k, n], zero-padded to an 8-wide
// panel [k, 8] so the 8-wide tile can read them. thread_local, valid until
// the next call; GemmStrided packs it once for all its row blocks.
const float* PackTailPanel(const float* b, int64_t n, int64_t k) {
  thread_local std::vector<float> panel;
  const int64_t tail = n % 8;
  panel.assign(static_cast<size_t>(k * 8), 0.0f);
  const float* src = b + (n - tail);
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < tail; ++j) panel[kk * 8 + j] = src[kk * n + j];
  }
  return panel.data();
}

// c[m, n] += A @ b where A(i, kk) = a[i*as_i + kk*as_k], b row-major [k, n].
// Full row blocks take 32-, then 16-, then 8-wide tiles, and the last n % 8
// columns an 8-wide tile over a padded panel; rows past the last full block
// go to the runtime-extent edge tile.
void GemmStrided(int64_t m, int64_t n, int64_t k, const float* a,
                 int64_t as_i, int64_t as_k, const float* b, float* c) {
  const int64_t tail = n % 8;
  const float* tail_panel =
      (tail > 0 && m >= kMr) ? PackTailPanel(b, n, k) : nullptr;
  int64_t i = 0;
  for (; i + kMr <= m; i += kMr) {
    const float* ai = a + i * as_i;
    float* ci = c + i * n;
    int64_t j = 0;
    for (; j + kNr <= n; j += kNr) {
      MicroTile(ai, as_i, as_k, b + j, n, ci + j, n, k);
    }
    if (j + 16 <= n) {
      MicroTileNarrow<2>(ai, as_i, as_k, b + j, n, ci + j, n, k);
      j += 16;
    }
    if (j + 8 <= n) {
      MicroTileNarrow<1>(ai, as_i, as_k, b + j, n, ci + j, n, k);
      j += 8;
    }
    if (j < n) {
      MicroTileNarrow<1>(ai, as_i, as_k, tail_panel, 8, ci + j, n, k, tail);
    }
  }
  if (i < m) {
    const float* ai = a + i * as_i;
    const int64_t mr = m - i;
    int64_t j = 0;
    for (; j + kNr <= n; j += kNr) {
      MicroTileEdge(ai, as_i, as_k, b + j, n, c + i * n + j, n, k, mr, kNr);
    }
    if (j < n) {
      MicroTileEdge(ai, as_i, as_k, b + j, n, c + i * n + j, n, k, mr, n - j);
    }
  }
}

// Reusable packing buffer for GemmTransB (single-core; thread_local keeps
// the threaded distributed hosts safe).
std::vector<float>& PackBuffer() {
  thread_local std::vector<float> buf;
  return buf;
}

// Copies n floats in fixed 8- and 4-float pieces, which the compiler emits
// as vector moves. Lowering a small convolution copies rows of 4 to 8
// floats, where a memcpy call per row costs more than the copy itself.
inline void CopyRow(float* __restrict__ dst, const float* __restrict__ src,
                    int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) std::memcpy(dst + j, src + j, 8 * sizeof(float));
  if (j + 4 <= n) {
    std::memcpy(dst + j, src + j, 4 * sizeof(float));
    j += 4;
  }
  for (; j < n; ++j) dst[j] = src[j];
}

// dst[j] += src[j] for j < n, in 8-float vectors where n allows.
inline void AddRow(float* __restrict__ dst, const float* __restrict__ src,
                   int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    StoreVec8(dst + j, LoadVec8(dst + j) + LoadVec8(src + j));
  }
  for (; j < n; ++j) dst[j] += src[j];
}

// Copy of a [channels, height, width] image inside a zero border `padding`
// cells wide, so every convolution window is in bounds. The buffer is
// thread_local (like PackBuffer) and valid until the next call.
float* PadImage(const float* im, int64_t channels, int64_t height,
                int64_t width, int64_t padding) {
  thread_local std::vector<float> buf;
  const int64_t padded_h = height + 2 * padding;
  const int64_t padded_w = width + 2 * padding;
  buf.assign(static_cast<size_t>(channels * padded_h * padded_w), 0.0f);
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t h = 0; h < height; ++h) {
      CopyRow(buf.data() + (ic * padded_h + h + padding) * padded_w + padding,
              im + (ic * height + h) * width, width);
    }
  }
  return buf.data();
}

}  // namespace

void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c) {
  GemmStrided(m, n, k, a, /*as_i=*/k, /*as_k=*/1, b, c);
}

void GemmTransA(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  GemmStrided(m, n, k, a, /*as_i=*/1, /*as_k=*/m, b, c);
}

void GemmTransB(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  // Pack b^T ([n, k] -> [k, n]) once, then reuse the row-streaming kernel.
  // Packing moves values untouched, so the accumulation chain is unchanged.
  std::vector<float>& bt = PackBuffer();
  bt.resize(static_cast<size_t>(k) * n);
  constexpr int64_t kBlock = 32;
  for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const int64_t j1 = std::min(n, j0 + kBlock);
    for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const int64_t k1 = std::min(k, k0 + kBlock);
      for (int64_t j = j0; j < j1; ++j) {
        for (int64_t kk = k0; kk < k1; ++kk) {
          bt[kk * n + j] = b[j * k + kk];
        }
      }
    }
  }
  GemmStrided(m, n, k, a, /*as_i=*/k, /*as_k=*/1, bt.data(), c);
}

void GemmReference(int64_t m, int64_t n, int64_t k, const float* a,
                   const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] += acc;
    }
  }
}

void GemmTransAReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[kk * m + i] * b[kk * n + j];
      c[i * n + j] += acc;
    }
  }
}

void GemmTransBReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[j * k + kk];
      c[i * n + j] += acc;
    }
  }
}

void Im2Col(const float* im, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t padding, float* cols) {
  const int64_t out_h = ConvOutDim(height, kernel, padding);
  const int64_t out_w = ConvOutDim(width, kernel, padding);
  const int64_t padded_h = height + 2 * padding;
  const int64_t padded_w = width + 2 * padding;
  const float* padded = PadImage(im, channels, height, width, padding);
  float* out = cols;
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw) {
        // Output (oh, ow) reads padded (oh + kh, ow + kw).
        const float* window = padded + (ic * padded_h + kh) * padded_w + kw;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          CopyRow(out, window + oh * padded_w, out_w);
          out += out_w;
        }
      }
    }
  }
}

void Col2Im(const float* cols, int64_t channels, int64_t height,
            int64_t width, int64_t kernel, int64_t padding, float* im) {
  const int64_t out_h = ConvOutDim(height, kernel, padding);
  const int64_t out_w = ConvOutDim(width, kernel, padding);
  const int64_t padded_h = height + 2 * padding;
  const int64_t padded_w = width + 2 * padding;
  // Accumulate onto a padded copy of im in Im2Col's order (each element's
  // chain starts from its value in im), then copy the interior back; what
  // lands on the border is the padding Im2Col read as zeros, and is dropped.
  float* padded = PadImage(im, channels, height, width, padding);
  const float* in = cols;
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw) {
        float* window = padded + (ic * padded_h + kh) * padded_w + kw;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          AddRow(window + oh * padded_w, in, out_w);
          in += out_w;
        }
      }
    }
  }
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t h = 0; h < height; ++h) {
      CopyRow(im + (ic * height + h) * width,
              padded + (ic * padded_h + h + padding) * padded_w + padding,
              width);
    }
  }
}

void Conv2dForwardReference(const float* x, const float* weight,
                            const float* bias, int64_t in_c, int64_t in_h,
                            int64_t in_w, int64_t out_c, int64_t kernel,
                            int64_t padding, float* y) {
  const int64_t out_h = ConvOutDim(in_h, kernel, padding);
  const int64_t out_w = ConvOutDim(in_w, kernel, padding);
  for (int64_t oc = 0; oc < out_c; ++oc) {
    for (int64_t oh = 0; oh < out_h; ++oh) {
      for (int64_t ow = 0; ow < out_w; ++ow) {
        double acc = bias[oc];
        for (int64_t ic = 0; ic < in_c; ++ic) {
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t ih = oh + kh - padding;
            if (ih < 0 || ih >= in_h) continue;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t iw = ow + kw - padding;
              if (iw < 0 || iw >= in_w) continue;
              acc += x[(ic * in_h + ih) * in_w + iw] *
                     weight[((oc * in_c + ic) * kernel + kh) * kernel + kw];
            }
          }
        }
        y[(oc * out_h + oh) * out_w + ow] = static_cast<float>(acc);
      }
    }
  }
}

void Conv2dBackwardReference(const float* x, const float* weight,
                             const float* grad_out, int64_t in_c,
                             int64_t in_h, int64_t in_w, int64_t out_c,
                             int64_t kernel, int64_t padding,
                             float* weight_grad, float* bias_grad,
                             float* grad_in) {
  const int64_t out_h = ConvOutDim(in_h, kernel, padding);
  const int64_t out_w = ConvOutDim(in_w, kernel, padding);
  for (int64_t oc = 0; oc < out_c; ++oc) {
    for (int64_t oh = 0; oh < out_h; ++oh) {
      for (int64_t ow = 0; ow < out_w; ++ow) {
        const float g = grad_out[(oc * out_h + oh) * out_w + ow];
        bias_grad[oc] += g;
        for (int64_t ic = 0; ic < in_c; ++ic) {
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t ih = oh + kh - padding;
            if (ih < 0 || ih >= in_h) continue;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t iw = ow + kw - padding;
              if (iw < 0 || iw >= in_w) continue;
              const int64_t wi = ((oc * in_c + ic) * kernel + kh) * kernel + kw;
              weight_grad[wi] += g * x[(ic * in_h + ih) * in_w + iw];
              grad_in[(ic * in_h + ih) * in_w + iw] += g * weight[wi];
            }
          }
        }
      }
    }
  }
}

void ReluForward(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::max(x[i], 0.0f);
}

void ReluBackward(const float* x, float* grad, int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad[i] = x[i] > 0.0f ? grad[i] : 0.0f;
}

void TanhForward(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void TanhBackward(const float* y, float* grad, int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad[i] *= 1.0f - y[i] * y[i];
}

void AddColBias(float* y, const float* bias, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = y + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void AddRowBias(float* y, const float* bias, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float b = bias[r];
    float* row = y + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += b;
  }
}

void ColSumsAccum(const float* x, int64_t rows, int64_t cols, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    for (int64_t c = 0; c < cols; ++c) out[c] += row[c];
  }
}

void RowSumsAccum(const float* x, int64_t rows, int64_t cols, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    // Serial chain per row keeps the ascending-column order deterministic.
    float acc = out[r];
    for (int64_t c = 0; c < cols; ++c) acc += row[c];
    out[r] = acc;
  }
}

}  // namespace kernels
}  // namespace fedscope
