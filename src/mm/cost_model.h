#ifndef FMMSW_MM_COST_MODEL_H_
#define FMMSW_MM_COST_MODEL_H_

/// \file
/// The MM cost model used by the plan interpreter: omega-square(a,b,c)
/// (Eq. 6) on a log_N scale, plus concrete operation-count predictions for
/// choosing between a for-loop join and a matrix multiplication at
/// execution time (paper Section 1.1.2: low-degree parts favor
/// combinatorial processing, high-degree parts favor MM).

#include <cstdint>

namespace fmmsw {

/// Exponent of multiplying n^a x n^b by n^b x n^c via square blocking.
double OmegaSquareExponent(double a, double b, double c, double omega);

/// Predicted scalar-operation count for multiplying an (m x k) by (k x n)
/// matrix by square blocking (Eq. 6) with a square kernel of exponent
/// omega: (m/d)(k/d)(n/d) blocks of d^omega, d = min(m, k, n).
double PredictedMmOps(int64_t m, int64_t k, int64_t n, double omega);

/// Predicted operation count for the combinatorial pairwise join with the
/// given input sizes and join selectivity-driven intermediate size.
double PredictedJoinOps(int64_t left, int64_t right, int64_t output);

}  // namespace fmmsw

#endif  // FMMSW_MM_COST_MODEL_H_
