#ifndef FMMSW_ENGINE_TRIANGLE_H_
#define FMMSW_ENGINE_TRIANGLE_H_

/// \file
/// The triangle query Q_triangle (Eq. 2) — both the combinatorial
/// O(N^{3/2}) worst-case-optimal join and the paper's Figure-1 algorithm
/// running in ~O(N^{2w/(w+1)}):
///
///   partition R on deg(Y|X), S on deg(Z|Y), T on deg(X|Z) at
///   Delta = N^{(w-1)/(w+1)}; triangles with a light corner are found by
///   three N*Delta joins; the all-heavy core (at most N/Delta values per
///   corner) is detected by one matrix multiplication.
///
/// The database layout follows Hypergraph::Triangle(): relations
/// [R(X,Y), S(Y,Z), T(X,Z)] with X=0, Y=1, Z=2.

#include "engine/elimination.h"
#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

struct TriangleStats {
  int64_t heavy_x = 0, heavy_y = 0, heavy_z = 0;
  /// Surviving tuples of the fused light-corner joins (the filtered-away
  /// intermediate is never materialized; with limit 1 this is at most 1
  /// per corner).
  int64_t light_join_tuples = 0;
  int64_t mm_dim_x = 0, mm_dim_y = 0, mm_dim_z = 0;
  bool answer_from_light = false;
};

/// Combinatorial baseline: generic join, O(N^{3/2}).
bool TriangleCombinatorial(const QueryInput& db, ExecContext* ctx = nullptr);

/// The Figure-1 algorithm. `omega` sets the partition threshold
/// Delta = N^{(omega-1)/(omega+1)}; pass log2(7) when using the Strassen
/// kernel so threshold and kernel agree.
bool TriangleMm(const QueryInput& db, double omega,
                MmKernel kernel = MmKernel::kBoolean,
                TriangleStats* stats = nullptr, ExecContext* ctx = nullptr);

/// The Figure-1 all-heavy core, shared by TriangleMm and the PANDA
/// executor's terminal MM group: is there a triangle R(x,y), S(y,z),
/// T(x,z) whose corners lie in the unary heavy sets hx, hy, hz? R and S
/// are semijoined to the heavy sets (false right there if either comes
/// out empty, before any interning); the heavy sets index the matrix
/// dimensions (reported in stats->mm_dim_*); one BooleanProduct under
/// `kernel` (counted in mm_products) is probed with T. `x`, `y`, `z` are
/// the corner variable ids.
bool HeavyTriangleCore(const Relation& r, const Relation& s,
                       const Relation& t, int x, int y, int z,
                       const Relation& hx, const Relation& hy,
                       const Relation& hz, MmKernel kernel,
                       TriangleStats* stats, ExecContext& ec);

/// Triangle counting via integer matrix multiplication (trace of A^3 on
/// the heavy part is not enough for counts; this counts all triangles by
/// summing the entrywise product of (M1 x M2) with T). Used by tests to
/// cross-check against WcojCount.
int64_t TriangleCountMm(const QueryInput& db, MmKernel kernel,
                        ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_TRIANGLE_H_
