#include "engine/four_cycle.h"

#include <atomic>
#include <cmath>

#include "core/exec_context.h"
#include "mm/matrix.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/ops.h"
#include "util/check.h"
#include "util/parallel.h"

namespace fmmsw {

namespace {

constexpr int kX = 0, kY = 1, kZ = 2, kW = 3;

/// Heavy values of `mid` (the middle vertex of a 2-path) in either of its
/// two incident relations, at the given threshold; returns the unary heavy
/// relation plus the light remainders of both relations.
struct MiddleSplit {
  Relation heavy;        // unary over {mid}
  Relation left_light;   // left relation restricted to light mid values
  Relation right_light;  // right relation restricted to light mid values
};

MiddleSplit SplitMiddle(const Relation& left, const Relation& right, int mid,
                        VarSet left_other, VarSet right_other, int64_t delta,
                        ExecContext* ec) {
  auto pl =
      PartitionByDegree(left, left_other, VarSet::Singleton(mid), delta, ec);
  auto pr = PartitionByDegree(right, right_other, VarSet::Singleton(mid),
                              delta, ec);
  MiddleSplit out;
  out.heavy = Union(pl.heavy, pr.heavy, ec);
  out.left_light = Antijoin(left, out.heavy, ec);
  out.right_light = Antijoin(right, out.heavy, ec);
  return out;
}

/// For each heavy middle value m of path a-m-b, the endpoint sets are
/// A_m = {a : left(a, m)} and B_m = {b : right(m, b)}; the callback
/// receives them and returns true to stop (answer found). Both incident
/// relations are indexed on the middle variable once (the naive version
/// re-scanned them per heavy value), and the heavy values are probed in
/// parallel on the context's pool — the callbacks only read shared state.
template <typename Check>
bool ForEachHeavy(ExecContext& ec, const Relation& heavy,
                  const Relation& left, const Relation& right, int mid,
                  VarSet left_other, VarSet right_other, const Check& check,
                  FourCycleStats* stats) {
  // The single-column gather below only supports unary endpoint sets
  // (always-on check: a wider VarSet would silently gather wrong columns).
  FMMSW_CHECK(left_other.size() == 1 && right_other.size() == 1);
  const KeySpec kleft(left, VarSet::Singleton(mid));
  const KeySpec kright(right, VarSet::Singleton(mid));
  const KeySpec kheavy(heavy, VarSet::Singleton(mid));
  const FlatMultimap ileft(left, kleft, &ec);
  const FlatMultimap iright(right, kright, &ec);
  const int lcol = left.ColumnOf(left_other.First());
  const int rcol = right.ColumnOf(right_other.First());
  // Probe count is approximate under early exit: workers already in
  // flight when the answer is found still increment it.
  std::atomic<int64_t> probes(0);
  const bool found = ParallelAnyOf(
      ec.pool(), static_cast<int64_t>(heavy.size()),
      [&](int64_t r) {
        // Probe with KeySpec so the key encoding stays mechanically
        // identical to the build side.
        const uint64_t key = kheavy.KeyOf(heavy.Row(r));
        Relation a_set(left_other & left.schema());
        for (int32_t row = ileft.First(key); row >= 0;
             row = ileft.Next(row)) {
          a_set.AddRow(&left.Row(row)[lcol]);
        }
        a_set.SortAndDedupe(&ec);
        Relation b_set(right_other & right.schema());
        for (int32_t row = iright.First(key); row >= 0;
             row = iright.Next(row)) {
          b_set.AddRow(&right.Row(row)[rcol]);
        }
        b_set.SortAndDedupe(&ec);
        // relaxed: stats-only sum, read after the fan-in below.
        probes.fetch_add(1, std::memory_order_relaxed);
        return check(a_set, b_set);
      },
      /*grain=*/8);
  if (stats != nullptr) stats->heavy_probes += probes.load();
  return found;
}

}  // namespace

bool FourCycleTd(const QueryInput& db, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  // Single TD {XYZ}, {ZWX}: materialize both bags fully (O(N^2)).
  const Relation& r = db.relations[0];
  const Relation& s = db.relations[1];
  const Relation& t = db.relations[2];
  const Relation& u = db.relations[3];
  Relation p = Project(Join(r, s, {}, &ec), VarSet{kX, kZ}, &ec);
  Relation q = Project(Join(t, u, {}, &ec), VarSet{kZ, kX}, &ec);
  return !Intersect(p, q, &ec).empty();
}

bool FourCycleCombinatorial(const QueryInput& db, FourCycleStats* stats,
                            ExecContext* ctx) {
  FMMSW_CHECK(db.relations.size() == 4);
  ExecContext& ec = ExecContext::Resolve(ctx);
  const Relation& r = db.relations[0];  // R(X,Y)
  const Relation& s = db.relations[1];  // S(Y,Z)
  const Relation& t = db.relations[2];  // T(Z,W)
  const Relation& u = db.relations[3];  // U(W,X)
  const double n = static_cast<double>(db.TotalSize());
  if (n == 0) return false;
  const int64_t delta =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(std::sqrt(n))));

  // Middle vertices of the two 2-paths: y on the R-S side, w on T-U.
  MiddleSplit ys = SplitMiddle(r, s, kY, VarSet{kX}, VarSet{kZ}, delta, &ec);
  MiddleSplit ws = SplitMiddle(t, u, kW, VarSet{kZ}, VarSet{kX}, delta, &ec);

  // Heavy y: O(N) probe per heavy value — find w adjacent to some z in
  // S[y] (via T) and some x in R[y] (via U).
  if (ForEachHeavy(ec, ys.heavy, r, s, kY, VarSet{kX}, VarSet{kZ},
                   [&](const Relation& xset, const Relation& zset) {
                     Relation wt =
                         Project(Semijoin(t, zset, &ec), VarSet{kW}, &ec);
                     Relation wu =
                         Project(Semijoin(u, xset, &ec), VarSet{kW}, &ec);
                     return !Intersect(wt, wu, &ec).empty();
                   },
                   stats)) {
    return true;
  }
  // Heavy w symmetric: find y adjacent to some x in U[w] and z in T[w].
  if (ForEachHeavy(ec, ws.heavy, t, u, kW, VarSet{kZ}, VarSet{kX},
                   [&](const Relation& zset, const Relation& xset) {
                     Relation yr =
                         Project(Semijoin(r, xset, &ec), VarSet{kY}, &ec);
                     Relation yss =
                         Project(Semijoin(s, zset, &ec), VarSet{kY}, &ec);
                     return !Intersect(yr, yss, &ec).empty();
                   },
                   stats)) {
    return true;
  }
  // Residual: both middles light. The first light 2-path set is
  // materialized (N * Delta); the second is never materialized — its join
  // carries a fused existence probe against the first, stopping at the
  // first witness.
  Relation p =
      Project(Join(ys.left_light, ys.right_light, {}, &ec), VarSet{kX, kZ},
              &ec);
  Relation q = Join(ws.left_light, ws.right_light,
                    {.exist_filter = &p, .limit = 1}, &ec);
  if (stats != nullptr) {
    stats->light_pairs =
        static_cast<int64_t>(p.size()) + static_cast<int64_t>(q.size());
  }
  return !q.empty();
}

bool FourCycleMm(const QueryInput& db, double omega, MmKernel kernel,
                 FourCycleStats* stats, ExecContext* ctx) {
  FMMSW_CHECK(db.relations.size() == 4);
  ExecContext& ec = ExecContext::Resolve(ctx);
  const Relation& r = db.relations[0];
  const Relation& s = db.relations[1];
  const Relation& t = db.relations[2];
  const Relation& u = db.relations[3];
  const double n = static_cast<double>(db.TotalSize());
  if (n == 0) return false;
  // Lemma C.9 Case-2 threshold exponent 2(w-1)/(2w+1), capped at 1/2 (the
  // w >= 5/2 regime where the combinatorial split is already optimal).
  const double exp_delta =
      std::min(0.5, 2.0 * (omega - 1.0) / (2.0 * omega + 1.0));
  const int64_t delta = DegreeThreshold(n, exp_delta);

  MiddleSplit ys = SplitMiddle(r, s, kY, VarSet{kX}, VarSet{kZ}, delta, &ec);
  MiddleSplit ws = SplitMiddle(t, u, kW, VarSet{kZ}, VarSet{kX}, delta, &ec);

  // Light-light: intersect the two light 2-path sets (N * Delta each;
  // both are kept — the mixed cases below probe them per heavy value).
  Relation p =
      Project(Join(ys.left_light, ys.right_light, {}, &ec), VarSet{kX, kZ},
              &ec);
  Relation q =
      Project(Join(ws.left_light, ws.right_light, {}, &ec), VarSet{kZ, kX},
              &ec);
  if (stats != nullptr) {
    stats->light_pairs =
        static_cast<int64_t>(p.size()) + static_cast<int64_t>(q.size());
  }
  if (!Intersect(p, q, &ec).empty()) return true;

  // Mixed: light y, heavy w — probe P with each heavy w's neighborhoods.
  if (ForEachHeavy(ec, ws.heavy, t, u, kW, VarSet{kZ}, VarSet{kX},
                   [&](const Relation& zset, const Relation& xset) {
                     return !SemijoinAll(p, {&xset, &zset}, &ec).empty();
                   },
                   stats)) {
    return true;
  }
  // Mixed: heavy y, light w.
  if (ForEachHeavy(ec, ys.heavy, r, s, kY, VarSet{kX}, VarSet{kZ},
                   [&](const Relation& xset, const Relation& zset) {
                     return !SemijoinAll(q, {&xset, &zset}, &ec).empty();
                   },
                   stats)) {
    return true;
  }

  // Heavy-heavy core via rectangular MM: B1[w][y] over the shared x
  // dimension, B2[y][w] over the shared z dimension.
  Relation rh = Semijoin(r, ys.heavy, &ec);  // R(X,Y), heavy y
  Relation uh = Semijoin(u, ws.heavy, &ec);  // U(W,X), heavy w
  Relation sh = Semijoin(s, ys.heavy, &ec);  // S(Y,Z), heavy y
  Relation th = Semijoin(t, ws.heavy, &ec);  // T(Z,W), heavy w
  // A heavy-heavy cycle needs all four restricted relations non-empty.
  if (rh.empty() || uh.empty() || sh.empty() || th.empty()) return false;

  // The unary heavy sets bulk-intern through the context (sharded in
  // parallel when large); xi/zi intern across two relations each, so they
  // stay incremental.
  FlatInterner yi(ys.heavy, KeySpec(ys.heavy, ys.heavy.schema()), &ec);
  FlatInterner wi(ws.heavy, KeySpec(ws.heavy, ws.heavy.schema()), &ec);
  FlatInterner xi, zi;
  for (size_t row = 0; row < rh.size(); ++row) {
    xi.InternValue(rh.Get(row, kX));
  }
  for (size_t row = 0; row < uh.size(); ++row) {
    xi.InternValue(uh.Get(row, kX));
  }
  for (size_t row = 0; row < sh.size(); ++row) {
    zi.InternValue(sh.Get(row, kZ));
  }
  for (size_t row = 0; row < th.size(); ++row) {
    zi.InternValue(th.Get(row, kZ));
  }
  if (yi.size() == 0 || wi.size() == 0) return false;
  if (stats != nullptr) {
    stats->mm_dims[0] = static_cast<int64_t>(wi.size());
    stats->mm_dims[1] = static_cast<int64_t>(xi.size() + zi.size());
    stats->mm_dims[2] = static_cast<int64_t>(yi.size());
  }
  const int ny = yi.size();
  const int nw = wi.size();
  const int nx = xi.size();
  const int nz = zi.size();

  auto multiply = [&](const BitMatrix& a, const BitMatrix& b) {
    Bump(ec.stats().mm_products);
    return BooleanProduct(a, b, kernel, &ec);
  };
  // B1 = U_h (w by x) times R_h (x by y).
  BitMatrix mu(nw, nx), mr(nx, ny);
  for (size_t row = 0; row < uh.size(); ++row) {
    mu.Set(wi.FindValue(uh.Get(row, kW)), xi.FindValue(uh.Get(row, kX)));
  }
  for (size_t row = 0; row < rh.size(); ++row) {
    mr.Set(xi.FindValue(rh.Get(row, kX)), yi.FindValue(rh.Get(row, kY)));
  }
  const BitMatrix b1 = multiply(mu, mr);
  // B2 = S_h (y by z) times T_h (z by w).
  BitMatrix ms(ny, nz), mt(nz, nw);
  for (size_t row = 0; row < sh.size(); ++row) {
    ms.Set(yi.FindValue(sh.Get(row, kY)), zi.FindValue(sh.Get(row, kZ)));
  }
  for (size_t row = 0; row < th.size(); ++row) {
    mt.Set(zi.FindValue(th.Get(row, kZ)), wi.FindValue(th.Get(row, kW)));
  }
  const BitMatrix b2 = multiply(ms, mt);
  for (int y = 0; y < ny; ++y) {
    for (int w = 0; w < nw; ++w) {
      if (b1.Get(w, y) && b2.Get(y, w)) return true;
    }
  }
  return false;
}

}  // namespace fmmsw
