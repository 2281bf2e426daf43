#include "fedscope/testing/kernel_fuzz.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/comm/message.h"
#include "fedscope/tensor/kernels.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace testing {
namespace {

std::vector<float> RandomFloats(Rng* rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
  return v;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void Report(std::vector<Violation>* out, const std::string& oracle,
            uint64_t trial_seed, const std::string& what) {
  std::ostringstream os;
  os << what << " (trial seed " << trial_seed << ")";
  out->push_back({oracle, os.str()});
}

// -- kernel oracles ---------------------------------------------------------

void FuzzGemmTrial(Rng* rng, uint64_t trial_seed,
                   std::vector<Violation>* out) {
  // Up to 80: n crosses the 32-, 16- and 8-wide tile boundaries at least
  // twice, and m several 8-row blocks.
  const int64_t m = rng->UniformInt(1, 80);
  const int64_t n = rng->UniformInt(1, 80);
  const int64_t k = rng->UniformInt(1, 80);
  const std::vector<float> a = RandomFloats(rng, m * k);
  const std::vector<float> b = RandomFloats(rng, k * n);
  // Random initial c: the kernels accumulate, so the contract must hold
  // for c += a@b, not just c = a@b.
  const std::vector<float> c0 = RandomFloats(rng, m * n);

  const struct {
    const char* name;
    void (*tiled)(int64_t, int64_t, int64_t, const float*, const float*,
                  float*);
    void (*ref)(int64_t, int64_t, int64_t, const float*, const float*,
                float*);
  } kVariants[] = {
      {"Gemm", kernels::Gemm, kernels::GemmReference},
      {"GemmTransA", kernels::GemmTransA, kernels::GemmTransAReference},
      {"GemmTransB", kernels::GemmTransB, kernels::GemmTransBReference},
  };
  for (const auto& v : kVariants) {
    // TransA reads a as [k, m]; TransB reads b as [n, k]. Both have m*k
    // and k*n elements respectively, so the same buffers serve all three.
    std::vector<float> c_tiled = c0;
    std::vector<float> c_ref = c0;
    v.tiled(m, n, k, a.data(), b.data(), c_tiled.data());
    v.ref(m, n, k, a.data(), b.data(), c_ref.data());
    if (!BitEqual(c_tiled, c_ref)) {
      std::ostringstream os;
      os << v.name << " tiled != scalar reference for m=" << m << " n=" << n
         << " k=" << k;
      Report(out, "kernel_gemm", trial_seed, os.str());
    }
  }
}

void NaiveIm2Col(const float* im, int64_t channels, int64_t height,
                 int64_t width, int64_t kernel, int64_t padding,
                 float* cols) {
  const int64_t out_h = kernels::ConvOutDim(height, kernel, padding);
  const int64_t out_w = kernels::ConvOutDim(width, kernel, padding);
  int64_t i = 0;
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw) {
        for (int64_t oh = 0; oh < out_h; ++oh) {
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t ih = oh + kh - padding;
            const int64_t iw = ow + kw - padding;
            const bool in_bounds =
                ih >= 0 && ih < height && iw >= 0 && iw < width;
            cols[i++] =
                in_bounds ? im[(ic * height + ih) * width + iw] : 0.0f;
          }
        }
      }
    }
  }
}

void FuzzConvTrial(Rng* rng, uint64_t trial_seed,
                   std::vector<Violation>* out) {
  const int64_t channels = rng->UniformInt(1, 3);
  const int64_t height = rng->UniformInt(1, 8);
  const int64_t width = rng->UniformInt(1, 8);
  const int64_t padding = rng->UniformInt(0, 2);
  // Stride-1 output extents must stay >= 1: kernel <= in + 2*padding.
  const int64_t max_kernel =
      std::min(height, width) + 2 * padding;
  const int64_t kernel = rng->UniformInt(1, std::min<int64_t>(4, max_kernel));
  const int64_t out_h = kernels::ConvOutDim(height, kernel, padding);
  const int64_t out_w = kernels::ConvOutDim(width, kernel, padding);
  const int64_t rows = channels * kernel * kernel;
  const int64_t cols_n = out_h * out_w;

  const std::vector<float> im = RandomFloats(rng, channels * height * width);
  std::vector<float> cols_fast(static_cast<size_t>(rows * cols_n), -7.0f);
  std::vector<float> cols_naive(static_cast<size_t>(rows * cols_n), 0.0f);
  kernels::Im2Col(im.data(), channels, height, width, kernel, padding,
                  cols_fast.data());
  NaiveIm2Col(im.data(), channels, height, width, kernel, padding,
              cols_naive.data());
  if (!BitEqual(cols_fast, cols_naive)) {
    std::ostringstream os;
    os << "Im2Col != naive gather for c=" << channels << " h=" << height
       << " w=" << width << " k=" << kernel << " p=" << padding;
    Report(out, "kernel_im2col", trial_seed, os.str());
  }

  // Col2Im is the exact adjoint scatter of the gather: accumulating any
  // column matrix back must equal the naive per-element scatter.
  const std::vector<float> grad_cols = RandomFloats(rng, rows * cols_n);
  std::vector<float> im_fast = RandomFloats(rng, channels * height * width);
  std::vector<float> im_naive = im_fast;
  kernels::Col2Im(grad_cols.data(), channels, height, width, kernel, padding,
                  im_fast.data());
  {
    int64_t i = 0;
    for (int64_t ic = 0; ic < channels; ++ic) {
      for (int64_t kh = 0; kh < kernel; ++kh) {
        for (int64_t kw = 0; kw < kernel; ++kw) {
          for (int64_t oh = 0; oh < out_h; ++oh) {
            for (int64_t ow = 0; ow < out_w; ++ow, ++i) {
              const int64_t ih = oh + kh - padding;
              const int64_t iw = ow + kw - padding;
              if (ih >= 0 && ih < height && iw >= 0 && iw < width) {
                im_naive[(ic * height + ih) * width + iw] += grad_cols[i];
              }
            }
          }
        }
      }
    }
  }
  if (!BitEqual(im_fast, im_naive)) {
    std::ostringstream os;
    os << "Col2Im != naive scatter for c=" << channels << " h=" << height
       << " w=" << width << " k=" << kernel << " p=" << padding;
    Report(out, "kernel_col2im", trial_seed, os.str());
  }

  // The production lowering (im2col + gemm + row bias) vs the direct
  // double-accumulating reference. Accumulation orders differ, so this is
  // a tolerance comparison, not a bit one.
  const int64_t out_c = rng->UniformInt(1, 3);
  const std::vector<float> weight = RandomFloats(rng, out_c * rows);
  const std::vector<float> bias = RandomFloats(rng, out_c);
  std::vector<float> y_lowered(static_cast<size_t>(out_c * cols_n), 0.0f);
  kernels::Gemm(out_c, cols_n, rows, weight.data(), cols_fast.data(),
                y_lowered.data());
  kernels::AddRowBias(y_lowered.data(), bias.data(), out_c, cols_n);
  std::vector<float> y_direct(static_cast<size_t>(out_c * cols_n), 0.0f);
  kernels::Conv2dForwardReference(im.data(), weight.data(), bias.data(),
                                  channels, height, width, out_c, kernel,
                                  padding, y_direct.data());
  for (size_t i = 0; i < y_direct.size(); ++i) {
    const float diff = std::abs(y_lowered[i] - y_direct[i]);
    if (!(diff <= 1e-3f)) {  // negated: also catches NaN
      std::ostringstream os;
      os << "im2col+gemm conv deviates from direct reference by " << diff
         << " at element " << i << " (c=" << channels << " h=" << height
         << " w=" << width << " k=" << kernel << " p=" << padding
         << " oc=" << out_c << ")";
      Report(out, "kernel_conv", trial_seed, os.str());
      break;
    }
  }
}

void FuzzElementwiseTrial(Rng* rng, uint64_t trial_seed,
                          std::vector<Violation>* out) {
  const int64_t rows = rng->UniformInt(1, 12);
  const int64_t cols = rng->UniformInt(1, 12);
  const int64_t n = rows * cols;
  const std::vector<float> x = RandomFloats(rng, n);

  std::vector<float> y(static_cast<size_t>(n));
  kernels::ReluForward(x.data(), y.data(), n);
  std::vector<float> y_ref(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) y_ref[i] = x[i] > 0.0f ? x[i] : 0.0f;
  if (!BitEqual(y, y_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "ReluForward != naive");
  }

  std::vector<float> grad = RandomFloats(rng, n);
  std::vector<float> grad_ref = grad;
  kernels::ReluBackward(x.data(), grad.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    if (!(x[i] > 0.0f)) grad_ref[i] = 0.0f;
  }
  if (!BitEqual(grad, grad_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "ReluBackward != naive");
  }

  const std::vector<float> bias_c = RandomFloats(rng, cols);
  std::vector<float> yc = x;
  std::vector<float> yc_ref = x;
  kernels::AddColBias(yc.data(), bias_c.data(), rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) yc_ref[r * cols + c] += bias_c[c];
  }
  if (!BitEqual(yc, yc_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "AddColBias != naive");
  }

  const std::vector<float> bias_r = RandomFloats(rng, rows);
  std::vector<float> yr = x;
  std::vector<float> yr_ref = x;
  kernels::AddRowBias(yr.data(), bias_r.data(), rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) yr_ref[r * cols + c] += bias_r[r];
  }
  if (!BitEqual(yr, yr_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "AddRowBias != naive");
  }

  // Sums accumulate row/col-major in ascending order — replicating that
  // order in the naive loop makes this an exact comparison too.
  std::vector<float> csum = RandomFloats(rng, cols);
  std::vector<float> csum_ref = csum;
  kernels::ColSumsAccum(x.data(), rows, cols, csum.data());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) csum_ref[c] += x[r * cols + c];
  }
  if (!BitEqual(csum, csum_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "ColSumsAccum != naive");
  }

  std::vector<float> rsum = RandomFloats(rng, rows);
  std::vector<float> rsum_ref = rsum;
  kernels::RowSumsAccum(x.data(), rows, cols, rsum.data());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) rsum_ref[r] += x[r * cols + c];
  }
  if (!BitEqual(rsum, rsum_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "RowSumsAccum != naive");
  }
}

void FuzzPoolTrial(Rng* rng, uint64_t trial_seed,
                   std::vector<Violation>* out) {
  // Half the trials take a vector-path width (4 or a multiple of 8), the
  // rest any width; heights and plane counts leave scalar tails and odd
  // last rows.
  const int64_t planes = rng->UniformInt(1, 40);
  const int64_t height = rng->UniformInt(1, 12);
  int64_t width = rng->UniformInt(1, 20);
  if (rng->Bernoulli(0.5)) {
    width = rng->Bernoulli(0.5) ? 4 : 8 * rng->UniformInt(1, 4);
  }
  // Few distinct values, so windows tie; zeros of both signs and the
  // non-finite values decide ties and NaN handling.
  const float kValues[] = {0.0f,
                           -0.0f,
                           1.0f,
                           -1.0f,
                           2.5f,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  std::vector<float> x(static_cast<size_t>(planes * height * width));
  for (auto& v : x) v = kValues[rng->UniformInt(0, 7)];
  const size_t outputs =
      static_cast<size_t>(planes * (height / 2) * (width / 2));
  std::vector<float> y(outputs, -7.0f), y_ref(outputs, 7.0f);
  std::vector<int64_t> arg(outputs, -1), arg_ref(outputs, -2);
  kernels::MaxPool2x2(x.data(), planes, height, width, y.data(), arg.data());
  kernels::MaxPool2x2Reference(x.data(), planes, height, width, y_ref.data(),
                               arg_ref.data());
  if (!BitEqual(y, y_ref) || arg != arg_ref) {
    std::ostringstream os;
    os << "MaxPool2x2 != scalar reference for planes=" << planes
       << " h=" << height << " w=" << width;
    Report(out, "kernel_pool", trial_seed, os.str());
  }
}

// -- codec oracles ----------------------------------------------------------

Message RandomMessage(Rng* rng) {
  static const char* kTypes[] = {"model_para", "model_update", "evaluate",
                                 "metrics", "join_in", "finish"};
  Message msg;
  msg.sender = static_cast<int>(rng->UniformInt(-1, 12));
  msg.receiver = static_cast<int>(rng->UniformInt(-1, 12));
  msg.msg_type = kTypes[rng->UniformInt(0, 5)];
  msg.state = static_cast<int>(rng->UniformInt(0, 100));
  msg.timestamp = rng->Uniform(0.0, 50.0);
  const int64_t n_scalars = rng->UniformInt(0, 4);
  for (int64_t i = 0; i < n_scalars; ++i) {
    const std::string key = "s" + std::to_string(i);
    switch (rng->UniformInt(0, 2)) {
      case 0:
        msg.payload.SetInt(key, rng->UniformInt(-1000, 1000));
        break;
      case 1:
        msg.payload.SetDouble(key, rng->Uniform(-10.0, 10.0));
        break;
      default: {
        std::string v(static_cast<size_t>(rng->UniformInt(0, 12)), 'x');
        for (auto& ch : v) ch = static_cast<char>(rng->UniformInt(1, 255));
        msg.payload.SetString(key, std::move(v));
      }
    }
  }
  const int64_t n_tensors = rng->UniformInt(0, 3);
  for (int64_t i = 0; i < n_tensors; ++i) {
    const int64_t ndim = rng->UniformInt(0, 3);
    std::vector<int64_t> shape;
    for (int64_t d = 0; d < ndim; ++d) shape.push_back(rng->UniformInt(1, 5));
    Tensor t = Tensor::Rand(shape, rng, -3.0f, 3.0f);
    msg.payload.SetTensor("t" + std::to_string(i), std::move(t));
  }
  return msg;
}

void FuzzCodecTrial(Rng* rng, uint64_t trial_seed,
                    std::vector<Violation>* out) {
  const Message msg = RandomMessage(rng);
  const std::vector<uint8_t> bytes = EncodeMessage(msg);

  if (EncodedMessageSize(msg) != bytes.size()) {
    Report(out, "codec_size", trial_seed,
           "EncodedMessageSize disagrees with EncodeMessage");
  }

  // Round trip: decode must succeed and re-encode bit-exactly.
  Result<Message> decoded = DecodeMessage(bytes);
  if (!decoded.ok()) {
    Report(out, "codec_roundtrip", trial_seed,
           "valid frame rejected: " + decoded.status().ToString());
  } else {
    const std::vector<uint8_t> again = EncodeMessage(decoded.value());
    if (again != bytes) {
      Report(out, "codec_roundtrip", trial_seed,
             "re-encode is not bit-identical");
    }
  }

  // Frame split / shuffle / reassemble restores the stream.
  const size_t max_frame =
      static_cast<size_t>(rng->UniformInt(1, static_cast<int64_t>(
                                                 bytes.size() + 8)));
  std::vector<Frame> frames = SplitIntoFrames(bytes, max_frame);
  rng->Shuffle(&frames);
  Result<std::vector<uint8_t>> joined = ReassembleFrames(std::move(frames));
  if (!joined.ok() || joined.value() != bytes) {
    Report(out, "codec_frames", trial_seed,
           "split+shuffle+reassemble did not restore the stream");
  }

  // Adversarial inputs: each must return Status (the oracle for "no
  // crash" is this process surviving; ASan/UBSan sharpen it in CI).
  std::vector<uint8_t> mutated = bytes;
  switch (rng->UniformInt(0, 3)) {
    case 0:  // truncate at a random point
      mutated.resize(static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(mutated.size()))));
      break;
    case 1:  // flip one random byte
      if (!mutated.empty()) {
        mutated[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(mutated.size()) - 1))] ^=
            static_cast<uint8_t>(rng->UniformInt(1, 255));
      }
      break;
    case 2:  // saturate a random 4-byte window (fake huge length prefix)
      if (mutated.size() >= 4) {
        const size_t at = static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(mutated.size()) - 4));
        std::memset(mutated.data() + at, 0xFF, 4);
      }
      break;
    default: {  // pure garbage
      mutated = std::vector<uint8_t>(
          static_cast<size_t>(rng->UniformInt(0, 64)));
      for (auto& byte : mutated) {
        byte = static_cast<uint8_t>(rng->UniformInt(0, 255));
      }
    }
  }
  Result<Message> hostile = DecodeMessage(mutated);
  if (hostile.ok()) {
    // A mutation may still parse (e.g. a flipped tensor byte). Whatever
    // decodes must survive re-encoding.
    (void)EncodeMessage(hostile.value());
  }
}

}  // namespace

FuzzReport FuzzKernels(uint64_t seed, int trials) {
  FuzzReport report;
  Rng seeder(seed);
  for (int t = 0; t < trials; ++t) {
    const uint64_t trial_seed = seeder.Fork(static_cast<uint64_t>(t)).Next();
    Rng rng(trial_seed);
    FuzzGemmTrial(&rng, trial_seed, &report.violations);
    FuzzConvTrial(&rng, trial_seed, &report.violations);
    FuzzElementwiseTrial(&rng, trial_seed, &report.violations);
    FuzzPoolTrial(&rng, trial_seed, &report.violations);
    ++report.trials;
  }
  return report;
}

FuzzReport FuzzCodec(uint64_t seed, int trials) {
  FuzzReport report;
  Rng seeder(seed);
  for (int t = 0; t < trials; ++t) {
    const uint64_t trial_seed = seeder.Fork(static_cast<uint64_t>(t)).Next();
    Rng rng(trial_seed);
    FuzzCodecTrial(&rng, trial_seed, &report.violations);
    ++report.trials;
  }
  return report;
}

}  // namespace testing
}  // namespace fedscope
