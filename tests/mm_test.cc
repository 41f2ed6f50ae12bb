// Tests for the matrix substrate: all kernels agree with the naive
// reference on random inputs, Strassen is exact, the rectangular
// square-blocking scheme matches Eq. (6)'s cost model, and BitMatrix
// implements the (OR, AND) semiring.

#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/exec_context.h"
#include "gtest/gtest.h"
#include "mm/cost_model.h"
#include "mm/kernel.h"
#include "mm/matrix.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fmmsw {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng, int64_t lo = -9,
                    int64_t hi = 9) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m.At(i, j) = rng->Uniform(lo, hi);
  }
  return m;
}

TEST(MatrixTest, NaiveKnownProduct) {
  Matrix a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]].
  int64_t av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) a.At(i, j) = av[i * 3 + j];
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) b.At(i, j) = bv[i * 2 + j];
  }
  Matrix c = MultiplyNaive(a, b);
  EXPECT_EQ(c.At(0, 0), 58);
  EXPECT_EQ(c.At(0, 1), 64);
  EXPECT_EQ(c.At(1, 0), 139);
  EXPECT_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, BlockedMatchesNaiveRandom) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const int m = static_cast<int>(rng.Uniform(1, 90));
    const int k = static_cast<int>(rng.Uniform(1, 90));
    const int n = static_cast<int>(rng.Uniform(1, 90));
    Matrix a = RandomMatrix(m, k, &rng), b = RandomMatrix(k, n, &rng);
    EXPECT_EQ(MultiplyBlocked(a, b), MultiplyNaive(a, b));
  }
}

TEST(MatrixTest, StrassenMatchesNaiveRandom) {
  Rng rng(12);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = static_cast<int>(rng.Uniform(1, 140));
    Matrix a = RandomMatrix(n, n, &rng), b = RandomMatrix(n, n, &rng);
    EXPECT_EQ(MultiplyStrassen(a, b, 16), MultiplyNaive(a, b)) << n;
  }
}

TEST(MatrixTest, StrassenNonSquare) {
  Rng rng(13);
  Matrix a = RandomMatrix(37, 91, &rng), b = RandomMatrix(91, 11, &rng);
  EXPECT_EQ(MultiplyStrassen(a, b, 8), MultiplyNaive(a, b));
}

TEST(MatrixTest, RectangularMatchesNaiveRandom) {
  Rng rng(14);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = static_cast<int>(rng.Uniform(1, 120));
    const int k = static_cast<int>(rng.Uniform(1, 40));
    const int n = static_cast<int>(rng.Uniform(1, 120));
    Matrix a = RandomMatrix(m, k, &rng), b = RandomMatrix(k, n, &rng);
    EXPECT_EQ(MultiplyRectangular(a, b, 16), MultiplyNaive(a, b));
  }
}

TEST(MatrixTest, AnyNonZero) {
  Matrix z(3, 3);
  EXPECT_FALSE(z.AnyNonZero());
  z.At(2, 1) = -5;
  EXPECT_TRUE(z.AnyNonZero());
}

TEST(BitMatrixTest, MultiplyMatchesIntegerSign) {
  Rng rng(15);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = static_cast<int>(rng.Uniform(1, 100));
    const int k = static_cast<int>(rng.Uniform(1, 100));
    const int n = static_cast<int>(rng.Uniform(1, 150));
    Matrix a(m, k), b(k, n);
    BitMatrix ba(m, k), bb(k, n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < k; ++j) {
        if (rng.Flip(0.2)) {
          a.At(i, j) = 1;
          ba.Set(i, j);
        }
      }
    }
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.Flip(0.2)) {
          b.At(i, j) = 1;
          bb.Set(i, j);
        }
      }
    }
    Matrix c = MultiplyNaive(a, b);
    BitMatrix bc = BitMatrix::Multiply(ba, bb);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(bc.Get(i, j), c.At(i, j) > 0);
      }
    }
  }
}

TEST(BitMatrixTest, BooleanProductMatchesMultiplyForEveryKernel) {
  // Degenerate shapes (0 x n, n x 0, empty inner dimension), widths on
  // both sides of the 64-bit word boundary, and a larger product.
  const struct {
    int m, k, n;
  } shapes[] = {{0, 5, 3},  {3, 0, 4},  {4, 6, 0},   {0, 0, 0},
                {1, 1, 1},  {7, 63, 65}, {65, 64, 1}, {33, 130, 127},
                {96, 200, 96}};
  Rng rng(16);
  ExecContext ec(2);
  for (const auto& s : shapes) {
    BitMatrix a(s.m, s.k), b(s.k, s.n);
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.k; ++j) {
        if (rng.Flip(0.1)) a.Set(i, j);
      }
    }
    for (int i = 0; i < s.k; ++i) {
      for (int j = 0; j < s.n; ++j) {
        if (rng.Flip(0.1)) b.Set(i, j);
      }
    }
    const BitMatrix ref = BitMatrix::Multiply(a, b, &ec);
    for (MmKernel kernel : {MmKernel::kBoolean, MmKernel::kStrassen,
                            MmKernel::kNaive, MmKernel::kBitSliced}) {
      const BitMatrix got = BooleanProduct(a, b, kernel, &ec);
      ASSERT_EQ(got.rows(), s.m);
      ASSERT_EQ(got.cols(), s.n);
      for (int i = 0; i < s.m; ++i) {
        for (int j = 0; j < s.n; ++j) {
          ASSERT_EQ(got.Get(i, j), ref.Get(i, j))
              << s.m << "x" << s.k << "x" << s.n << " kernel "
              << static_cast<int>(kernel) << " at " << i << "," << j;
        }
      }
    }
  }
}

TEST(BitMatrixTest, AnyNonZero) {
  BitMatrix m(5, 70);
  EXPECT_FALSE(m.AnyNonZero());
  m.Set(4, 69);
  EXPECT_TRUE(m.AnyNonZero());
  EXPECT_TRUE(m.Get(4, 69));
  EXPECT_FALSE(m.Get(4, 68));
}

// --------------------------------------------- parallel differentials --
// ctest runs this binary with FMMSW_THREADS=4, so the pooled kernels
// (MultiplyBlocked, BitMatrix::Multiply, MultiplyRectangular) execute
// multi-threaded here and are checked against the serial naive reference.

TEST(ParallelKernelTest, BlockedMatchesNaiveLarge) {
  Rng rng(21);
  for (int trial = 0; trial < 3; ++trial) {
    const int m = static_cast<int>(rng.Uniform(150, 260));
    const int k = static_cast<int>(rng.Uniform(150, 260));
    const int n = static_cast<int>(rng.Uniform(150, 260));
    Matrix a = RandomMatrix(m, k, &rng), b = RandomMatrix(k, n, &rng);
    EXPECT_EQ(MultiplyBlocked(a, b), MultiplyNaive(a, b));
  }
}

TEST(ParallelKernelTest, RectangularMatchesNaiveLarge) {
  Rng rng(22);
  Matrix a = RandomMatrix(210, 60, &rng), b = RandomMatrix(60, 240, &rng);
  EXPECT_EQ(MultiplyRectangular(a, b, 16), MultiplyNaive(a, b));
}

TEST(ParallelKernelTest, BitMatrixMatchesIntegerSignLarge) {
  Rng rng(23);
  const int m = 220, k = 200, n = 260;
  Matrix a(m, k), b(k, n);
  BitMatrix ba(m, k), bb(k, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) {
      if (rng.Flip(0.1)) {
        a.At(i, j) = 1;
        ba.Set(i, j);
      }
    }
  }
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.Flip(0.1)) {
        b.At(i, j) = 1;
        bb.Set(i, j);
      }
    }
  }
  Matrix c = MultiplyNaive(a, b);
  BitMatrix bc = BitMatrix::Multiply(ba, bb);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bc.Get(i, j), c.At(i, j) > 0) << i << "," << j;
    }
  }
}

TEST(ParallelKernelTest, ParallelForCoversEveryIndex) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelKernelTest, ParallelAnyOfFindsWitness) {
  EXPECT_TRUE(ParallelAnyOf(5000, [](int64_t i) { return i == 4321; }));
  EXPECT_FALSE(ParallelAnyOf(5000, [](int64_t) { return false; }));
  EXPECT_FALSE(ParallelAnyOf(0, [](int64_t) { return true; }));
}

TEST(ParallelKernelTest, ThreadCountHonorsEnvironment) {
  // ctest sets FMMSW_THREADS=4 for this binary; non-positive or garbage
  // values fall back to hardware_concurrency, so only assert on valid
  // settings.
  if (const char* env = std::getenv("FMMSW_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) {
      EXPECT_EQ(ThreadPool::ConfiguredThreads(), n);
      EXPECT_EQ(ThreadPool::Global().threads(), n);
    } else {
      EXPECT_GE(ThreadPool::ConfiguredThreads(), 1);
    }
  }
}

// ------------------------------------------- micro-kernel layer --------
// The packed micro-kernel (mm/kernel.h) must be bit-identical to
// MultiplyNaive at every SIMD level. ctest runs this binary once with the
// host's ActiveSimdLevel (AVX2 where supported) and CI re-runs it under
// FMMSW_SIMD=off; the tests below additionally drive both levels
// in-process via GemmAddAt, so the scalar fallback is exercised even on
// AVX2 hosts and vice versa.

std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (MaxSimdLevel() != SimdLevel::kScalar) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

Matrix GemmVia(SimdLevel level, const Matrix& a, const Matrix& b,
               ExecContext* ec = nullptr) {
  Matrix out(a.rows(), b.cols());
  MmPackScratch pack;
  // RowPtr(0) on a degenerate 0-cell matrix would index into an empty
  // vector before GemmAddAt's shape guard runs; pass nullptr instead
  // (the guard returns before any dereference).
  GemmAddAt(level, a.empty() ? nullptr : a.RowPtr(0), a.cols(),
            b.empty() ? nullptr : b.RowPtr(0), b.cols(),
            out.empty() ? nullptr : out.RowPtr(0), out.cols(), a.rows(),
            a.cols(), b.cols(), ec, &pack);
  return out;
}

TEST(MicroKernelTest, MatchesNaiveAcrossEdgeShapes) {
  // Shapes straddling the MR x NR tile and the KC chunk boundary,
  // including single-row / single-column panels.
  const struct {
    int m, k, n;
  } shapes[] = {{1, 1, 1},   {1, 7, 1},    {7, 1, 7},    {1, 200, 1},
                {200, 1, 3}, {4, 16, 8},   {5, 16, 9},   {3, 384, 5},
                {3, 385, 5}, {65, 33, 47}, {64, 770, 24}};
  Rng rng(31);
  for (SimdLevel level : TestableLevels()) {
    for (const auto& s : shapes) {
      Matrix a = RandomMatrix(s.m, s.k, &rng), b = RandomMatrix(s.k, s.n, &rng);
      EXPECT_EQ(GemmVia(level, a, b), MultiplyNaive(a, b))
          << SimdLevelName(level) << " " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

TEST(MicroKernelTest, WideValuesUseTheFullKernel) {
  // Values outside int32 disable the narrow single-multiply path; the
  // emulated 64-bit multiply must still match scalar imul exactly
  // (including negatives). Products stay within int64, no UB.
  Rng rng(32);
  Matrix a = RandomMatrix(19, 41, &rng), b = RandomMatrix(41, 23, &rng);
  a.At(3, 7) = (int64_t{1} << 40) + 12345;
  a.At(18, 40) = -(int64_t{1} << 52) - 7;
  b.At(12, 11) = (int64_t{1} << 38) - 1;
  b.At(0, 0) = -(int64_t{1} << 34);
  const Matrix ref = MultiplyNaive(a, b);
  for (SimdLevel level : TestableLevels()) {
    EXPECT_EQ(GemmVia(level, a, b), ref) << SimdLevelName(level);
  }
}

TEST(MicroKernelTest, MixedNarrowAndWideChunks) {
  // k spans three KC chunks; only the middle chunk holds a wide value, so
  // the per-chunk dispatch must switch kernels mid-product.
  Rng rng(33);
  Matrix a = RandomMatrix(9, 900, &rng), b = RandomMatrix(900, 12, &rng);
  a.At(5, 500) = int64_t{1} << 44;
  b.At(450, 3) = -(int64_t{1} << 41);
  const Matrix ref = MultiplyNaive(a, b);
  for (SimdLevel level : TestableLevels()) {
    EXPECT_EQ(GemmVia(level, a, b), ref) << SimdLevelName(level);
  }
}

TEST(MicroKernelTest, AccumulatesIntoExistingOutput) {
  Rng rng(34);
  Matrix a = RandomMatrix(10, 17, &rng), b = RandomMatrix(17, 13, &rng);
  Matrix expect = MultiplyNaive(a, b);
  Matrix out(10, 13);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 13; ++j) {
      out.At(i, j) = 100 * i + j;
      expect.At(i, j) += 100 * i + j;
    }
  }
  for (SimdLevel level : TestableLevels()) {
    Matrix c = out;
    MmPackScratch pack;
    GemmAddAt(level, a.RowPtr(0), 17, b.RowPtr(0), 13, c.RowPtr(0), 13, 10,
              17, 13, nullptr, &pack);
    EXPECT_EQ(c, expect) << SimdLevelName(level);
  }
}

TEST(MicroKernelTest, StridedViewsMatchContiguous) {
  // Sub-panels addressed with lda/ldb/ldc larger than the panel width —
  // the shape MultiplyRectangular and the Strassen quadrants produce.
  Rng rng(35);
  Matrix a = RandomMatrix(40, 50, &rng), b = RandomMatrix(50, 60, &rng);
  const int m = 13, k = 21, n = 17, i0 = 5, k0 = 9, j0 = 31;
  Matrix asub(m, k), bsub(k, n);
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) asub.At(i, kk) = a.At(i0 + i, k0 + kk);
  }
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) bsub.At(kk, j) = b.At(k0 + kk, j0 + j);
  }
  const Matrix ref = MultiplyNaive(asub, bsub);
  for (SimdLevel level : TestableLevels()) {
    Matrix out(40, 60);
    MmPackScratch pack;
    GemmAddAt(level, a.RowPtr(i0) + k0, a.cols(), b.RowPtr(k0) + j0,
              b.cols(), out.RowPtr(i0) + j0, out.cols(), m, k, n, nullptr,
              &pack);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(out.At(i0 + i, j0 + j), ref.At(i, j))
            << SimdLevelName(level) << " " << i << "," << j;
      }
    }
  }
}

TEST(MicroKernelTest, KernelStatsAccounting) {
  ExecContext ec(1);
  Rng rng(36);
  Matrix a = RandomMatrix(96, 96, &rng), b = RandomMatrix(96, 96, &rng);
  EXPECT_EQ(MultiplyBlocked(a, b, &ec), MultiplyNaive(a, b));
  EXPECT_GT(ec.stats().mm_base_calls.load(), 0);
  if (ActiveSimdLevel() == SimdLevel::kScalar) {
    EXPECT_EQ(ec.stats().mm_simd_calls.load(), 0);
  } else {
    EXPECT_GT(ec.stats().mm_simd_calls.load(), 0);
  }
  EXPECT_EQ(ec.stats().mm_bitsliced_calls.load(), 0);
}

// --------------------------------------------- bit-sliced counting -----

Matrix RandomIndicator(int rows, int cols, double density, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng->Flip(density)) m.At(i, j) = 1;
    }
  }
  return m;
}

TEST(BitSlicedTest, MatchesNaiveAcrossShapes) {
  // Inner dimensions straddling the 64-bit word boundary.
  const struct {
    int m, k, n;
  } shapes[] = {{1, 1, 1},  {3, 63, 5},  {3, 64, 5},   {3, 65, 5},
                {9, 128, 7}, {40, 200, 31}, {1, 300, 1}};
  Rng rng(41);
  for (const auto& s : shapes) {
    Matrix a = RandomIndicator(s.m, s.k, 0.4, &rng);
    Matrix b = RandomIndicator(s.k, s.n, 0.4, &rng);
    EXPECT_EQ(MultiplyBitSliced(a, b), MultiplyNaive(a, b))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BitSlicedTest, CountsNotJustExistence) {
  // All-ones inputs: every entry of the product must equal k exactly.
  Matrix a(3, 70), b(70, 4);
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 70; ++k) a.At(i, k) = 1;
  }
  for (int k = 0; k < 70; ++k) {
    for (int j = 0; j < 4; ++j) b.At(k, j) = 1;
  }
  Matrix p = MultiplyBitSliced(a, b);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) ASSERT_EQ(p.At(i, j), 70);
  }
}

TEST(BitSlicedTest, CountingProductDispatch) {
  Rng rng(42);
  ExecContext ec(1);
  Matrix a = RandomIndicator(20, 90, 0.3, &rng);
  Matrix b = RandomIndicator(90, 25, 0.3, &rng);
  const Matrix ref = MultiplyNaive(a, b);
  EXPECT_EQ(CountingProduct(a, b, MmKernel::kBitSliced, &ec), ref);
  EXPECT_EQ(ec.stats().mm_bitsliced_calls.load(), 1);
  // Non-0/1 input falls back to the cubic micro-kernel path.
  Matrix c = RandomMatrix(20, 90, &rng);
  EXPECT_EQ(CountingProduct(c, b, MmKernel::kBitSliced, &ec),
            MultiplyNaive(c, b));
  EXPECT_EQ(ec.stats().mm_bitsliced_calls.load(), 1);
  // Every kernel choice agrees with the naive reference.
  EXPECT_EQ(CountingProduct(a, b, MmKernel::kNaive, &ec), ref);
  EXPECT_EQ(CountingProduct(a, b, MmKernel::kStrassen, &ec), ref);
  EXPECT_EQ(CountingProduct(a, b, MmKernel::kBoolean, &ec), ref);
}

TEST(BitSlicedTest, IsZeroOne) {
  Matrix m(2, 2);
  EXPECT_TRUE(IsZeroOne(m));
  m.At(0, 1) = 1;
  EXPECT_TRUE(IsZeroOne(m));
  m.At(1, 0) = 2;
  EXPECT_FALSE(IsZeroOne(m));
  m.At(1, 0) = -1;
  EXPECT_FALSE(IsZeroOne(m));
  EXPECT_TRUE(IsZeroOne(Matrix(0, 3)));
}

// --------------------------------------------- degenerate shapes -------

TEST(DegenerateShapeTest, ZeroDimensionProductsAcrossKernels) {
  // 0-row / 0-col / 0-inner products must return correctly shaped
  // all-zero matrices from every kernel.
  const struct {
    int m, k, n;
  } shapes[] = {{0, 0, 0}, {0, 5, 3}, {3, 0, 4}, {4, 6, 0}, {0, 0, 7}};
  for (const auto& s : shapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    const Matrix ref = MultiplyNaive(a, b);
    EXPECT_EQ(ref.rows(), s.m);
    EXPECT_EQ(ref.cols(), s.n);
    EXPECT_FALSE(ref.AnyNonZero());
    EXPECT_EQ(MultiplyBlocked(a, b), ref);
    EXPECT_EQ(MultiplyStrassen(a, b), ref);
    EXPECT_EQ(MultiplyRectangular(a, b), ref);
    EXPECT_EQ(MultiplyBitSliced(a, b), ref);
    for (SimdLevel level : TestableLevels()) {
      EXPECT_EQ(GemmVia(level, a, b), ref) << SimdLevelName(level);
    }
  }
}

TEST(DegenerateShapeTest, AnyNonZeroAndEmptyOnDegenerateMatrices) {
  EXPECT_TRUE(Matrix(0, 0).empty());
  EXPECT_TRUE(Matrix(0, 5).empty());
  EXPECT_TRUE(Matrix(5, 0).empty());
  EXPECT_FALSE(Matrix(1, 1).empty());
  EXPECT_FALSE(Matrix(0, 0).AnyNonZero());
  EXPECT_FALSE(Matrix(0, 5).AnyNonZero());
  EXPECT_FALSE(Matrix(5, 0).AnyNonZero());
  EXPECT_FALSE(BitMatrix(0, 0).AnyNonZero());
  EXPECT_FALSE(BitMatrix(0, 9).AnyNonZero());
}

TEST(CostModelTest, OmegaSquareExponent) {
  // Eq. (6): square case gives omega, degenerate min gives linear I/O.
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(1, 1, 1, 2.371552), 2.371552);
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(1, 1, 0, 2.371552), 2.0);
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(1, 0.5, 0.25, 2.0), 1.5);
  // omega = 3 degenerates to the naive product a+b+c.
  EXPECT_DOUBLE_EQ(OmegaSquareExponent(0.5, 0.7, 0.9, 3.0), 2.1);
}

TEST(CostModelTest, PredictedOpsScalesLikeOmega) {
  // Doubling n multiplies the square-MM cost by ~2^omega.
  const double omega = 2.807;
  const double r = PredictedMmOps(512, 512, 512, omega) /
                   PredictedMmOps(256, 256, 256, omega);
  EXPECT_NEAR(std::log2(r), omega, 1e-9);
}

TEST(CostModelTest, RectangularBlockCount) {
  // (m/d)(k/d)(n/d) * d^omega with d = min dimension.
  const double v = PredictedMmOps(100, 10, 1000, 2.0);
  EXPECT_DOUBLE_EQ(v, 10.0 * 1.0 * 100.0 * 100.0);
}

}  // namespace
}  // namespace fmmsw
