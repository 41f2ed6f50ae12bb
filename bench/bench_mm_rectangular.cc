// E8 — the MM kernel substrate: measured runtime of the int64
// micro-kernel product at both SIMD levels, the bit-sliced 0/1 counting
// product, and the bit-packed Boolean product, across an n-sweep; plus the
// Eq. (6) n^{w-square(a,b,c)} shape table at w = 2.371552 (cost_model).
// Every timed kernel is verified against MultiplyNaive once per size
// before timing.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/exec_context.h"
#include "mm/cost_model.h"
#include "mm/kernel.h"
#include "mm/matrix.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace fmmsw {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng, int64_t lo = -3,
                    int64_t hi = 3) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m.At(i, j) = rng->Uniform(lo, hi);
  }
  return m;
}

Matrix RandomIndicator(int rows, int cols, double density, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng->Flip(density)) m.At(i, j) = 1;
    }
  }
  return m;
}

double TimeKernel(const std::function<Matrix()>& f, int reps,
                  const Matrix& expect) {
  FMMSW_CHECK(f() == expect);  // verify once, untimed
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) {
    Matrix m = f();
    if (m.rows() < 0) std::abort();  // keep the product alive
  }
  return sw.Seconds() / reps;
}

void Run() {
  bench::Header("MM kernels: micro-kernel / bit-sliced / bit-packed "
                "(verified vs naive)");
  ExecContext ec;
  std::printf("active SIMD level: %s (FMMSW_SIMD overrides)\n",
              SimdLevelName(ActiveSimdLevel()));
  std::printf("%6s %12s %12s %12s %12s\n", "n", "gemm_scalar", "gemm_simd",
              "bitsliced", "bitmatrix");
  for (int n : {128, 256, 512}) {
    if (!bench::StepEnabled(n)) continue;
    const int reps = n <= 256 ? 5 : 2;
    Rng rng(17);
    Matrix a = RandomMatrix(n, n, &rng), b = RandomMatrix(n, n, &rng);
    const Matrix ref = MultiplyNaive(a, b);

    // Micro-kernel at each level (the whole product as one panel call;
    // the pack buffers come from a worker arena of `ec`, as in
    // MultiplyBlocked).
    auto gemm_at = [&](SimdLevel level) {
      Matrix out(n, n);
      GemmAddAt(level, a.RowPtr(0), n, b.RowPtr(0), n, out.RowPtr(0), n, n,
                n, n, &ec);
      return out;
    };
    const double t_scalar =
        TimeKernel([&] { return gemm_at(SimdLevel::kScalar); }, reps, ref);
    double t_simd = -1.0;
    if (MaxSimdLevel() != SimdLevel::kScalar) {
      t_simd =
          TimeKernel([&] { return gemm_at(SimdLevel::kAvx2); }, reps, ref);
    }
    // 0/1 counting product: bit-sliced vs the same product through the
    // int64 micro-kernel path (the cost it removes). The mm_pack_ns delta
    // splits out the bit-plane packing time (blocked transpose for B).
    Matrix ia = RandomIndicator(n, n, 0.3, &rng);
    Matrix ib = RandomIndicator(n, n, 0.3, &rng);
    const Matrix iref = MultiplyNaive(ia, ib);
    const int64_t pack0 = ec.stats().mm_pack_ns.load();
    const double t_bits = TimeKernel(
        [&] { return MultiplyBitSliced(ia, ib, &ec); }, reps, iref);
    const double t_bits_pack =
        static_cast<double>(ec.stats().mm_pack_ns.load() - pack0) * 1e-9 /
        (reps + 1);  // TimeKernel runs one extra verification call
    BitMatrix ba(n, n), bb(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (ia.At(i, j) != 0) ba.Set(i, j);
        if (ib.At(i, j) != 0) bb.Set(i, j);
      }
    }
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      BitMatrix bm = BitMatrix::Multiply(ba, bb, &ec);
      if (bm.rows() < 0) std::abort();
    }
    const double t_bool = sw.Seconds() / reps;

    char simd_col[16];
    if (t_simd >= 0) {
      std::snprintf(simd_col, sizeof(simd_col), "%12.5f", t_simd);
    } else {
      std::snprintf(simd_col, sizeof(simd_col), "%12s", "n/a");
    }
    std::printf("%6d %12.5f %s %12.5f %12.5f\n", n, t_scalar, simd_col,
                t_bits, t_bool);
    bench::Json("mm", n, "gemm_scalar", t_scalar * 1e3);
    if (t_simd >= 0) bench::Json("mm", n, "gemm_simd", t_simd * 1e3);
    bench::Json("mm", n, "bitsliced", t_bits * 1e3);
    bench::Json("mm", n, "bitsliced_pack", t_bits_pack * 1e3);
    bench::Json("mm", n, "bitmatrix", t_bool * 1e3);
  }

  // Pack-focused sweep at sizes where the B planes outgrow cache — the
  // regime the blocked transpose pack targets. Verified against the
  // micro-kernel blocked product (itself differentially tested vs naive)
  // so the largest size stays affordable.
  bench::Header("bit-sliced pack (blocked transpose) at larger n");
  for (int n : {1024, 2048}) {
    if (!bench::StepEnabled(n)) continue;
    Rng rng(23);
    Matrix ia = RandomIndicator(n, n, 0.3, &rng);
    Matrix ib = RandomIndicator(n, n, 0.3, &rng);
    const Matrix ref = MultiplyBlocked(ia, ib, &ec);
    const int reps = 2;
    const int64_t pack0 = ec.stats().mm_pack_ns.load();
    const double t = TimeKernel(
        [&] { return MultiplyBitSliced(ia, ib, &ec); }, reps, ref);
    const double t_pack =
        static_cast<double>(ec.stats().mm_pack_ns.load() - pack0) * 1e-9 /
        (reps + 1);
    std::printf("%6d bitsliced %10.5fs  pack %10.5fs\n", n, t, t_pack);
    bench::Json("mm", n, "bitsliced_large", t * 1e3);
    bench::Json("mm", n, "bitsliced_large_pack", t_pack * 1e3);
  }

  // Shape table: predicted block count * d^w vs Eq. (6) exponent.
  bench::Header("Eq. (6): w-square(a,b,c) predictions at w = 2.371552");
  const double w = 2.371552;
  struct Shape {
    double a, b, c;
  };
  for (const Shape& s : {Shape{1, 1, 1}, Shape{1, 0.5, 1}, Shape{1, 1, 0.5},
                         Shape{0.5, 1, 0.5}}) {
    const double pred = OmegaSquareExponent(s.a, s.b, s.c, w);
    std::printf("(a,b,c)=(%.1f,%.1f,%.1f)  paper=a+b+c-(3-w)min  ours=%s\n",
                s.a, s.b, s.c, bench::Fmt(pred).c_str());
  }
}

}  // namespace
}  // namespace fmmsw

int main(int argc, char** argv) {
  fmmsw::bench::Init(argc, argv);
  fmmsw::Run();
  return 0;
}
