#ifndef FMMSW_MM_KERNEL_H_
#define FMMSW_MM_KERNEL_H_

/// \file
/// Vectorized micro-kernel layer under the matrix-multiply hot paths.
///
/// The heavy-part plans reduce join evaluation to dense counting / Boolean
/// matrix products (paper Section 2.5, Appendix E.6), so the MM base case
/// is the innermost loop of every hybrid engine path. This layer supplies
/// it:
///
///   - GemmAddAt: a packed, register-blocked int64 panel product. A and B
///     are copied into contiguous tile-aligned scratch (MR x kc and
///     NR x kc strips, zero-padded edge tiles), then an unrolled micro
///     kernel accumulates MR x NR output tiles in registers. The inner
///     kernel is selected at runtime: AVX2 (64-bit lanes, the low-64 mul
///     emulated with three 32x32 vpmuludq products) when the CPU supports
///     it, a scalar strip kernel otherwise. Both accumulate with
///     well-defined mod-2^64 (unsigned) arithmetic, so every SIMD level
///     produces identical bits for any input, and all agree with
///     MultiplyNaive whenever its signed products and sums stay within
///     int64 (always true for the engines' indicator-derived matrices;
///     naive's own signed overflow would be UB).
///   - MultiplyBitSliced: a counting product for 0/1 indicator matrices —
///     exactly what the engines' heavy-part products are. Rows of A and
///     columns of B are packed into bit-planes; out[i][j] is the popcount
///     of a word-AND, 64 multiply-adds per word op.
///
/// Dispatch: ActiveSimdLevel() probes the CPU once (cpuid via
/// __builtin_cpu_supports) and honors the FMMSW_SIMD environment variable
/// ("off"/"scalar" forces the scalar kernels, "avx2" requests AVX2,
/// clamped to what the hardware supports). Tests drive both paths
/// in-process through the explicit-level entry points.
///
/// MultiplyBlocked, the Strassen cutoff base case, and the
/// MultiplyRectangular block products (mm/matrix.h) all route through
/// GemmAddAt; kernel launches and packing time are accounted on the
/// ExecContext (mm_base_calls, mm_simd_calls, mm_bitsliced_calls,
/// mm_pack_ns).

#include <cstdint>
#include <vector>

#include "mm/matrix.h"

namespace fmmsw {

class ExecContext;

/// Inner-kernel instruction sets, in increasing order of capability.
enum class SimdLevel {
  kScalar = 0,  ///< portable strip kernel
  kAvx2 = 1,    ///< 4 x 64-bit lanes, emulated 64-bit multiply
};

/// Highest level this CPU (and build) can execute.
SimdLevel MaxSimdLevel();

/// Level selected for the process: FMMSW_SIMD ("off"/"scalar" -> scalar,
/// "avx2" -> AVX2 if supported, unset/"auto" -> MaxSimdLevel), cached on
/// first call.
SimdLevel ActiveSimdLevel();

/// Short human-readable name ("scalar", "avx2") for benches and traces.
const char* SimdLevelName(SimdLevel level);

/// Micro-kernel tile: MR output rows by NR output columns accumulate in
/// registers. Exposed so tests can target exact-multiple and edge shapes.
inline constexpr int kMmTileRows = 4;  // MR
inline constexpr int kMmTileCols = 8;  // NR

/// Reusable packing buffers for GemmAddAt. Callers that issue many panel
/// products sequentially (the Strassen recursion) pass one scratch so the
/// panels are allocated once; without it GemmAddAt borrows a free
/// ExecContext worker arena, or falls back to call-local buffers.
struct MmPackScratch {
  std::vector<uint64_t> a_pack, b_pack;
};

/// c (m x n, row stride ldc) += a (m x k, stride lda) * b (k x n, stride
/// ldb). Exact mod-2^64 int64 product; degenerate shapes (any dimension
/// <= 0) are no-ops. Single-threaded — callers parallelize over disjoint
/// row slabs of c. `level` picks the inner kernel: production callers
/// resolve ActiveSimdLevel() once per product, tests compare levels
/// in-process.
void GemmAddAt(SimdLevel level, const int64_t* a, int lda, const int64_t* b,
               int ldb, int64_t* c, int ldc, int m, int k, int n,
               ExecContext* ctx = nullptr, MmPackScratch* scratch = nullptr);

/// True if every entry of m is 0 or 1 (the engines' indicator matrices).
bool IsZeroOne(const Matrix& m);

/// Bit-sliced counting product for 0/1 matrices: packs rows of a and
/// columns of b into k-bit planes and accumulates popcount(word AND word),
/// so each 64-wide slice of the inner dimension costs one AND + popcount
/// instead of 64 int64 multiply-adds. Requires 0/1 inputs (DCHECKed;
/// CountingProduct verifies them before dispatching here). Row blocks run
/// on the context's pool. Exact: out == MultiplyNaive(a, b).
Matrix MultiplyBitSliced(const Matrix& a, const Matrix& b,
                         ExecContext* ctx = nullptr);

/// Product kernel choice for the engines' heavy-part products. Every
/// decision product goes through BooleanProduct, which maps the choice
/// to a kernel; only exact counts (TriangleCountMm) call CountingProduct.
enum class MmKernel {
  kBoolean,    ///< bit-packed (OR, AND) product
  kStrassen,   ///< counting product via Strassen (omega = log2 7)
  kNaive,      ///< cubic counting product (blocked + micro-kernel)
  kBitSliced,  ///< 0/1 counting via bit-planes (falls back to cubic)
};

/// The counting product under `kernel`: kStrassen -> MultiplyRectangular,
/// kNaive -> MultiplyBlocked, kBitSliced and kBoolean -> MultiplyBitSliced
/// when both inputs verify as 0/1 (MultiplyBlocked otherwise). All
/// choices return results bit-identical to MultiplyNaive(a, b).
Matrix CountingProduct(const Matrix& a, const Matrix& b, MmKernel kernel,
                       ExecContext* ctx = nullptr);

/// The Boolean product MM(X; Y; Z) (Definition 4.5) under `kernel`: the
/// one place a decision product meets a kernel. kBoolean ->
/// BitMatrix::Multiply; every counting kernel runs CountingProduct on the
/// 0/1 expansion of a and b and keeps the non-zero cells. All choices
/// return the same matrix.
BitMatrix BooleanProduct(const BitMatrix& a, const BitMatrix& b,
                         MmKernel kernel, ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_MM_KERNEL_H_
