#include "mm/matrix.h"

#include <algorithm>

#include "core/exec_context.h"
#include "mm/kernel.h"
#include "util/parallel.h"

namespace fmmsw {

bool Matrix::AnyNonZero() const {
  if (data_.empty()) return false;  // 0 x n / n x 0: no cells to scan
  for (int64_t v : data_) {
    if (v != 0) return true;
  }
  return false;
}

Matrix MultiplyNaive(const Matrix& a, const Matrix& b) {
  FMMSW_CHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const int64_t aik = a.At(i, k);
      if (aik == 0) continue;
      for (int j = 0; j < b.cols(); ++j) {
        out.At(i, j) += aik * b.At(k, j);
      }
    }
  }
  return out;
}

Matrix MultiplyBlocked(const Matrix& a, const Matrix& b, ExecContext* ctx) {
  FMMSW_CHECK(a.cols() == b.rows());
  ExecContext& ec = ExecContext::Resolve(ctx);
  Matrix out(a.rows(), b.cols());
  if (a.rows() == 0 || a.cols() == 0 || b.cols() == 0) return out;
  // Output matrix, charged for the duration of the product.
  MemCharge charge(ec, static_cast<int64_t>(a.rows()) * b.cols() * 8);
  const SimdLevel level = ActiveSimdLevel();
  // Each task owns a slab of output rows, so the writes never overlap;
  // the slab product itself is the packed micro-kernel. Slab height
  // trades B-repacking (once per slab) against fan-out: at 128 rows the
  // repack is <1% of the slab's multiply work.
  constexpr int kSlab = 128;
  ParallelFor(
      ec, FaultSite::kMm, (a.rows() + kSlab - 1) / kSlab,
      [&](int64_t slab_begin, int64_t slab_end) {
        // No caller scratch: ParallelFor may invoke this chunk callback
        // once per claimed slab, so a local MmPackScratch would
        // re-allocate the pack buffers per slab. The nullptr path borrows
        // a per-worker context arena, whose capacity persists across
        // slabs and calls.
        for (int64_t slab = slab_begin; slab < slab_end; ++slab) {
          const int i0 = static_cast<int>(slab) * kSlab;
          const int rows = std::min(kSlab, a.rows() - i0);
          GemmAddAt(level, a.RowPtr(i0), a.cols(), b.RowPtr(0), b.cols(),
                    out.RowPtr(i0), out.cols(), rows, a.cols(), b.cols(),
                    &ec, nullptr);
        }
      });
  return out;
}

bool BitMatrix::AnyNonZero() const {
  for (uint64_t w : data_) {
    if (w != 0) return true;
  }
  return false;
}

BitMatrix BitMatrix::Multiply(const BitMatrix& a, const BitMatrix& b,
                              ExecContext* ctx) {
  FMMSW_CHECK(a.cols() == b.rows());
  ExecContext& ec = ExecContext::Resolve(ctx);
  BitMatrix out(a.rows(), b.cols());
  const int a_words = a.words_;
  const int b_words = b.words_;
  // 0 x n, n x 0 and empty-inner products have no set bits to visit
  // (and no row storage to address).
  if (a.rows() == 0 || a_words == 0 || b_words == 0) return out;
  MemCharge charge(ec, static_cast<int64_t>(out.data_.size()) * 8);
  ParallelFor(
      ec, FaultSite::kMm, a.rows(),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          uint64_t* out_row = &out.data_[static_cast<size_t>(i) * b_words];
          const uint64_t* a_row = &a.data_[static_cast<size_t>(i) * a_words];
          for (int wa = 0; wa < a_words; ++wa) {
            uint64_t bits = a_row[wa];
            while (bits != 0) {
              const int k = (wa << 6) + __builtin_ctzll(bits);
              bits &= bits - 1;
              const uint64_t* b_row =
                  &b.data_[static_cast<size_t>(k) * b_words];
              for (int w = 0; w < b_words; ++w) out_row[w] |= b_row[w];
            }
          }
        }
      },
      /*grain=*/16);
  return out;
}

}  // namespace fmmsw
