#ifndef FMMSW_RELATION_DEGREE_H_
#define FMMSW_RELATION_DEGREE_H_

/// \file
/// Degree statistics and degree-based partitioning (Definition E.9 and the
/// Decomposition Step of Section 2.5 / Theorem E.10).
///
/// deg_R(Y|X) is the maximum, over assignments x of X, of the number of
/// distinct Y\X-values co-occurring with x. The partition step splits R on
/// a threshold Delta: X-values of degree > Delta form the *heavy* part
/// (kept as the projection onto X — there are at most |R|/Delta of them),
/// the rest keep their full tuples in the *light* part. This is the exact
/// database operation matching the proof-sequence step
/// h(XY) -> h(X) + h(Y|X).

#include <vector>

#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

/// deg_R(Y | X): max over x of |pi_{Y\X}(sigma_{X=x}(R))| (Definition E.9).
/// X and Y need not be disjoint; X may include variables outside R's
/// schema (they are ignored, matching the paper's convention).
int64_t Degree(const Relation& r, VarSet y, VarSet x);

/// The heavy/light threshold Delta = max(1, ceil(n^exponent)) at total
/// input size n. Each engine derives its own exponent from omega.
int64_t DegreeThreshold(double n, double exponent);

struct DegreePartition {
  /// Projection onto X of the X-values with degree > threshold;
  /// |heavy| <= |R| / threshold.
  Relation heavy;
  /// Full tuples whose X-value has degree <= threshold;
  /// deg_light(Y|X) <= threshold.
  Relation light;
};

/// Splits R on deg(Y|X) at `threshold`. The packed-key grouping sort
/// borrows the context's scratch arena instead of allocating.
DegreePartition PartitionByDegree(const Relation& r, VarSet y, VarSet x,
                                  int64_t threshold,
                                  ExecContext* ctx = nullptr);

/// Uniformization: buckets tuples of R by floor(log2 deg(Y|X)) of their
/// X-value. Bucket i holds X-values with degree in [2^i, 2^(i+1)); at most
/// 1 + log2 |R| buckets (the polylog factor in PANDA's ~O).
std::vector<Relation> DegreeBuckets(const Relation& r, VarSet y, VarSet x,
                                    ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_RELATION_DEGREE_H_
