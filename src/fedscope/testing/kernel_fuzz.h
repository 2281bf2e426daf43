#ifndef FEDSCOPE_TESTING_KERNEL_FUZZ_H_
#define FEDSCOPE_TESTING_KERNEL_FUZZ_H_

#include <cstdint>

#include "fedscope/testing/oracles.h"

namespace fedscope {
namespace testing {

struct FuzzReport {
  int trials = 0;
  std::vector<Violation> violations;
};

/// Differential fuzz of the tensor kernels over random shapes: tiled
/// Gemm/GemmTransA/GemmTransB vs the scalar *Reference kernels (exact
/// bit equality — the determinism contract), Im2Col/Col2Im vs a naive
/// gather/scatter, the im2col+gemm convolution lowering vs the direct
/// double-accumulating Conv2dForwardReference (tolerance), the
/// elementwise helpers vs naive loops (exact), and MaxPool2x2 vs
/// MaxPool2x2Reference over random extents with ties, signed zeros and
/// non-finite values (exact values and indices).
FuzzReport FuzzKernels(uint64_t seed, int trials);

/// Fuzz of the wire codec: random valid messages must decode and
/// re-encode bit-exactly (and EncodedMessageSize must match); frame
/// split/shuffle/reassemble must restore the stream; truncated, mutated,
/// and pure-garbage frames must return Status — never crash.
FuzzReport FuzzCodec(uint64_t seed, int trials);

}  // namespace testing
}  // namespace fedscope

#endif  // FEDSCOPE_TESTING_KERNEL_FUZZ_H_
