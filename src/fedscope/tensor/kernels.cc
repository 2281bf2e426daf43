#include "fedscope/tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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
// Lane masks, shuffle selectors and lane offsets for Vec8.
typedef int32_t Vec8i __attribute__((vector_size(8 * sizeof(int32_t))));

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

// Transposes the 8x8 block at src (row stride lds) into dst (row stride
// ldd): three rounds of two-input shuffles, each swapping the off-diagonal
// sub-blocks of size 4, then 2, then 1 between row pairs.
void Transpose8x8(const float* __restrict__ src, int64_t lds,
                  float* __restrict__ dst, int64_t ldd) {
  constexpr Vec8i kLo4 = {0, 1, 2, 3, 8, 9, 10, 11};
  constexpr Vec8i kHi4 = {4, 5, 6, 7, 12, 13, 14, 15};
  constexpr Vec8i kLo2 = {0, 1, 8, 9, 4, 5, 12, 13};
  constexpr Vec8i kHi2 = {2, 3, 10, 11, 6, 7, 14, 15};
  constexpr Vec8i kLo1 = {0, 8, 2, 10, 4, 12, 6, 14};
  constexpr Vec8i kHi1 = {1, 9, 3, 11, 5, 13, 7, 15};
  Vec8 r[8];
  for (int i = 0; i < 8; ++i) r[i] = LoadVec8(src + i * lds);
  Vec8 t[8];
  for (int i = 0; i < 4; ++i) {
    t[i] = __builtin_shuffle(r[i], r[i + 4], kLo4);
    t[i + 4] = __builtin_shuffle(r[i], r[i + 4], kHi4);
  }
  for (int i : {0, 1, 4, 5}) {
    r[i] = __builtin_shuffle(t[i], t[i + 2], kLo2);
    r[i + 2] = __builtin_shuffle(t[i], t[i + 2], kHi2);
  }
  for (int i : {0, 2, 4, 6}) {
    t[i] = __builtin_shuffle(r[i], r[i + 1], kLo1);
    t[i + 1] = __builtin_shuffle(r[i], r[i + 1], kHi1);
  }
  for (int i = 0; i < 8; ++i) StoreVec8(dst + i * ldd, t[i]);
}

// bt = b^T for row-major b [n, k]: bt[kk * n + j] = b[j * k + kk]. Full
// 8x8 blocks go through Transpose8x8; the last k % 8 columns of each 8-row
// band and the last n % 8 rows are copied one float at a time.
void PackTransposed(const float* b, int64_t n, int64_t k, float* bt) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    int64_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
      Transpose8x8(b + j * k + kk, k, bt + kk * n + j, n);
    }
    for (; kk < k; ++kk) {
      for (int64_t r = 0; r < 8; ++r) bt[kk * n + j + r] = b[(j + r) * k + kk];
    }
  }
  for (; j < n; ++j) {
    for (int64_t kk = 0; kk < k; ++kk) bt[kk * n + j] = b[j * k + kk];
  }
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

// -- 2x2 max pooling --------------------------------------------------------

typedef int64_t Vec8l __attribute__((vector_size(8 * sizeof(int64_t))));

// Rows wider than this would overflow PoolLanes' int32 offsets.
constexpr int64_t kMaxLaneWidth = std::numeric_limits<int32_t>::max() - 1;

// The window whose (0,0) element is x[at], in visit order with strict `>`.
inline void PoolWindow(const float* x, int64_t at, int64_t width, float* y,
                       int64_t* argmax) {
  float best = x[at];
  int64_t best_at = at;
  for (const int64_t cand : {at + 1, at + width, at + width + 1}) {
    if (x[cand] > best) {
      best = x[cand];
      best_at = cand;
    }
  }
  *y = best;
  *argmax = best_at;
}

// Eight windows, one per lane: a, b, c, d hold their (0,0), (0,1), (1,0) and
// (1,1) elements and `at` the flat index of each (0,0). A compare and a
// select per visit step, on values and offsets alike, are PoolWindow's
// branches lane by lane (a false compare, NaN included, keeps the lane).
inline void PoolLanes(Vec8 a, Vec8 b, Vec8 c, Vec8 d, Vec8l at,
                      int32_t width, float* y, int64_t* argmax) {
  const Vec8i zero = {};
  Vec8 best = a;
  Vec8i offset = zero;
  Vec8i take = b > best;
  best = take ? b : best;
  offset = take ? zero + 1 : offset;
  take = c > best;
  best = take ? c : best;
  offset = take ? zero + width : offset;
  take = d > best;
  best = take ? d : best;
  offset = take ? zero + (width + 1) : offset;
  StoreVec8(y, best);
  const Vec8l index = at + __builtin_convertvector(offset, Vec8l);
  std::memcpy(argmax, &index, sizeof(index));
}

constexpr Vec8i kEvenLanes = {0, 2, 4, 6, 8, 10, 12, 14};
constexpr Vec8i kOddLanes = {1, 3, 5, 7, 9, 11, 13, 15};
constexpr Vec8i kLowPairs = {0, 1, 4, 5, 8, 9, 12, 13};
constexpr Vec8i kHighPairs = {2, 3, 6, 7, 10, 11, 14, 15};

// Pools `pairs` consecutive row pairs, `width` wide, the first starting at
// x[start]; window o goes to y[o] and argmax[o]. When the width is a
// multiple of 8, each 8 columns of a row pair hold 4 windows; a 4-wide row
// pair holds 2. Either way 8 lanes fill from contiguous loads. The windows
// those steps leave, and every window of other widths, go through
// PoolWindow.
void PoolRowPairs(const float* x, int64_t start, int64_t pairs, int64_t width,
                  float* y, int64_t* argmax) {
  const int64_t out_w = width / 2;
  const int64_t outputs = pairs * out_w;
  int64_t o = 0;
  if (width % 8 == 0 && width <= kMaxLaneWidth) {
    // (0,0) index of the next 4-window run: row pair `row`, column `col`.
    int64_t row = start, col = 0;
    auto next_run = [&] {
      const int64_t at = row + col;
      col += 8;
      if (col == width) {
        col = 0;
        row += 2 * width;
      }
      return at;
    };
    for (; o + 8 <= outputs; o += 8) {
      const int64_t p = next_run(), q = next_run();
      const Vec8 top_p = LoadVec8(x + p), bottom_p = LoadVec8(x + p + width);
      const Vec8 top_q = LoadVec8(x + q), bottom_q = LoadVec8(x + q + width);
      PoolLanes(__builtin_shuffle(top_p, top_q, kEvenLanes),
                __builtin_shuffle(top_p, top_q, kOddLanes),
                __builtin_shuffle(bottom_p, bottom_q, kEvenLanes),
                __builtin_shuffle(bottom_p, bottom_q, kOddLanes),
                Vec8l{p, p + 2, p + 4, p + 6, q, q + 2, q + 4, q + 6},
                static_cast<int32_t>(width), y + o, argmax + o);
    }
  } else if (width == 4) {
    // Four row pairs of 8 floats each: lanes 0-3 of a pair are its top
    // row, lanes 4-7 its bottom row.
    for (; o + 8 <= outputs; o += 8) {
      const int64_t p = start + 4 * o;
      const Vec8 v0 = LoadVec8(x + p), v1 = LoadVec8(x + p + 8);
      const Vec8 v2 = LoadVec8(x + p + 16), v3 = LoadVec8(x + p + 24);
      // Even lanes of two pairs: (0,0) of windows 0 1, (1,0) of 0 1, then
      // the same for windows 2 3; odd lanes hold (0,1) and (1,1).
      const Vec8 even01 = __builtin_shuffle(v0, v1, kEvenLanes);
      const Vec8 even23 = __builtin_shuffle(v2, v3, kEvenLanes);
      const Vec8 odd01 = __builtin_shuffle(v0, v1, kOddLanes);
      const Vec8 odd23 = __builtin_shuffle(v2, v3, kOddLanes);
      PoolLanes(__builtin_shuffle(even01, even23, kLowPairs),
                __builtin_shuffle(odd01, odd23, kLowPairs),
                __builtin_shuffle(even01, even23, kHighPairs),
                __builtin_shuffle(odd01, odd23, kHighPairs),
                p + Vec8l{0, 2, 8, 10, 16, 18, 24, 26}, 4, y + o,
                argmax + o);
    }
  }
  for (int64_t q = o / out_w, ow = o % out_w; q < pairs; ++q, ow = 0) {
    for (; ow < out_w; ++ow) {
      PoolWindow(x, start + 2 * q * width + 2 * ow, width, y + q * out_w + ow,
                 argmax + q * out_w + ow);
    }
  }
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
  PackTransposed(b, n, k, bt.data());
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

void MaxPool2x2(const float* x, int64_t planes, int64_t height,
                int64_t width, float* y, int64_t* argmax) {
  const int64_t out_h = height / 2, out_w = width / 2;
  if (out_h == 0 || out_w == 0) return;
  if (height % 2 == 0) {
    // Without a dropped last row the planes are one run of row pairs.
    PoolRowPairs(x, 0, planes * out_h, width, y, argmax);
    return;
  }
  for (int64_t p = 0; p < planes; ++p) {
    const int64_t out = p * out_h * out_w;
    PoolRowPairs(x, p * height * width, out_h, width, y + out, argmax + out);
  }
}

void MaxPool2x2Reference(const float* x, int64_t planes, int64_t height,
                         int64_t width, float* y, int64_t* argmax) {
  const int64_t out_h = height / 2, out_w = width / 2;
  int64_t o = 0;
  for (int64_t p = 0; p < planes; ++p) {
    for (int64_t oh = 0; oh < out_h; ++oh) {
      const int64_t row = (p * height + 2 * oh) * width;
      for (int64_t ow = 0; ow < out_w; ++ow, ++o) {
        const int64_t i0 = row + 2 * ow;
        float best = x[i0];
        int64_t best_at = i0;
        if (x[i0 + 1] > best) {
          best = x[i0 + 1];
          best_at = i0 + 1;
        }
        if (x[i0 + width] > best) {
          best = x[i0 + width];
          best_at = i0 + width;
        }
        if (x[i0 + width + 1] > best) {
          best = x[i0 + width + 1];
          best_at = i0 + width + 1;
        }
        y[o] = best;
        argmax[o] = best_at;
      }
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
