#ifndef FMMSW_WIDTH_SUBW_H_
#define FMMSW_WIDTH_SUBW_H_

/// \file
/// Combinatorial width measures: the fractional edge cover number rho*
/// (Definition C.1), the fractional hypertree width fhtw, and the
/// submodular width subw (Eq. 19), computed exactly over rationals via the
/// TD-tuple LP reduction of Appendix A.4 (Eq. 36-39).

#include <cstdint>
#include <vector>

#include "entropy/polymatroid.h"
#include "hypergraph/decomposition.h"
#include "hypergraph/hypergraph.h"
#include "util/rational.h"

namespace fmmsw {

class ExecContext;

/// Fractional edge cover number of the vertices in `target` using all
/// hyperedges of H (min sum of edge weights covering each target vertex).
/// With target == vertices() this is rho*(H), the AGM-bound exponent.
/// Throws QueryAbort(kInvalidArgument) naming the first target vertex
/// that no hyperedge covers (the cover LP would be infeasible).
Rational FractionalEdgeCover(const Hypergraph& h, VarSet target,
                             ExecContext* ctx = nullptr);

/// rho*(H) = FractionalEdgeCover over all vertices.
Rational RhoStar(const Hypergraph& h, ExecContext* ctx = nullptr);

/// A tree decomposition with its width (max over bags of the fractional
/// edge cover of the bag).
struct WidthTd {
  TreeDecomposition td;
  Rational width;
};

/// The first minimum-width TD in EnumerateTds order. Its width is the
/// fractional hypertree width. The cover LPs poll `ctx`'s guard and count
/// in its stats.
WidthTd MinFhtwTd(const Hypergraph& h, ExecContext* ctx = nullptr);

/// Fractional hypertree width: min over TDs of max over bags of the
/// fractional edge cover of the bag.
Rational Fhtw(const Hypergraph& h, ExecContext* ctx = nullptr);

struct SubwResult {
  Rational value;
  /// A worst-case polymatroid attaining the value (the argmax h of
  /// Eq. 19), taken from the winning tuple's LP solution.
  SetFn<Rational> worst_case;
  /// The TDs the max-min ranged over.
  std::vector<TreeDecomposition> tds;
  int lps_solved = 0;
  long lp_warm_starts = 0;  ///< LPs that replayed a previous basis
  long lp_pivots = 0;       ///< total simplex pivots
  int64_t plan_ns = 0;      ///< wall time of the computation
};

/// Exact submodular width via one LP per tuple of bags (one bag from each
/// non-redundant TD), Eq. (39).
SubwResult SubmodularWidth(const Hypergraph& h, ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_WIDTH_SUBW_H_
