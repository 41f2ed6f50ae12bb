#include "engine/clique.h"

#include "core/exec_context.h"
#include "engine/wcoj.h"
#include "hypergraph/hypergraph.h"
#include "mm/matrix.h"
#include "relation/flat_index.h"
#include "relation/ops.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace fmmsw {

namespace {

/// Edge index of pair (i, j), i < j, in Hypergraph::Clique(k)'s order.
int PairEdgeIndex(int k, int i, int j) {
  FMMSW_CHECK(i < j);
  int idx = 0;
  for (int a = 0; a < i; ++a) idx += k - a - 1;
  return idx + (j - i - 1);
}

/// Flat set of the pairs in a binary relation, keyed (first var value,
/// second var value). Reserved for the row count (an upper bound on
/// distinct pairs), so the build never grow-rehashes mid-insert.
FlatSet PairSet(const Relation& r, int v1, int v2) {
  FlatSet out;
  out.Reserve(r.size());
  for (size_t row = 0; row < r.size(); ++row) {
    const uint64_t a = static_cast<uint32_t>(r.Get(row, v1));
    const uint64_t b = static_cast<uint32_t>(r.Get(row, v2));
    out.Insert((a << 32) | b);
  }
  return out;
}

bool HasPair(const FlatSet& set, Value a, Value b) {
  return set.Contains(
      (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
      static_cast<uint32_t>(b));
}

/// Enumerates the sub-cliques of a variable group: the WCOJ join of the
/// pair relations inside the group, with singleton groups reduced to the
/// intersection of their incident projections.
Relation GroupCliques(int k, const QueryInput& db, const std::vector<int>& g,
                      ExecContext* ec) {
  VarSet group;
  for (int v : g) group.Add(v);
  if (g.size() == 1) {
    Relation acc;
    bool first = true;
    for (int other = 0; other < k; ++other) {
      if (other == g[0]) continue;
      const int e = PairEdgeIndex(k, std::min(g[0], other),
                                  std::max(g[0], other));
      Relation proj = Project(db.relations[e], group, ec);
      acc = first ? proj : Intersect(acc, proj, ec);
      first = false;
    }
    return acc;
  }
  Hypergraph sub(k);
  sub = sub.Eliminate(VarSet::Full(k) - group);
  QueryInput sub_db;
  for (size_t i = 0; i < g.size(); ++i) {
    for (size_t j = i + 1; j < g.size(); ++j) {
      const int a = std::min(g[i], g[j]), b = std::max(g[i], g[j]);
      sub.AddEdge(VarSet{a, b});
      sub_db.relations.push_back(db.relations.ptr(PairEdgeIndex(k, a, b)));
    }
  }
  return WcojJoin(sub, sub_db, group, nullptr, ec);
}

/// Cross-group compatibility: cliques ta, tb are compatible iff every
/// cross pair is present in its relation.
bool Compatible(int k, const QueryInput& db,
                const std::vector<FlatSet>& pair_sets,
                const std::vector<int>& ga, const Relation& ra, size_t rowa,
                const std::vector<int>& gb, const Relation& rb,
                size_t rowb) {
  (void)db;
  for (int va : ga) {
    for (int vb : gb) {
      const int lo = std::min(va, vb), hi = std::max(va, vb);
      const int e = PairEdgeIndex(k, lo, hi);
      const Value x = va < vb ? ra.Get(rowa, va) : rb.Get(rowb, vb);
      const Value y = va < vb ? rb.Get(rowb, vb) : ra.Get(rowa, va);
      if (!HasPair(pair_sets[e], x, y)) return false;
    }
  }
  return true;
}

}  // namespace

bool CliqueCombinatorial(int k, const QueryInput& db, ExecContext* ctx) {
  return WcojBoolean(Hypergraph::Clique(k), db, ctx);
}

bool CliqueMm(int k, const QueryInput& db, MmKernel kernel, CliqueStats* stats,
              ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  FMMSW_CHECK(k >= 3);
  FMMSW_CHECK(db.relations.size() ==
              static_cast<size_t>(k * (k - 1) / 2));
  // Group sizes floor(k/3), ceil((k-1)/3), ceil(k/3) (Lemma C.8).
  const int a_size = k / 3;
  const int b_size = (k + 1) / 3;
  const int c_size = (k + 2) / 3;
  FMMSW_CHECK(a_size + b_size + c_size == k);
  std::vector<int> ga, gb, gc;
  int v = 0;
  for (int i = 0; i < a_size; ++i) ga.push_back(v++);
  for (int i = 0; i < b_size; ++i) gb.push_back(v++);
  for (int i = 0; i < c_size; ++i) gc.push_back(v++);

  Relation la = GroupCliques(k, db, ga, &ec);
  Relation lb = GroupCliques(k, db, gb, &ec);
  Relation lc = GroupCliques(k, db, gc, &ec);
  if (stats != nullptr) {
    stats->group_cliques[0] = static_cast<int64_t>(la.size());
    stats->group_cliques[1] = static_cast<int64_t>(lb.size());
    stats->group_cliques[2] = static_cast<int64_t>(lc.size());
  }
  if (la.empty() || lb.empty() || lc.empty()) return false;

  std::vector<FlatSet> pair_sets;
  {
    // The pair-set builds are this engine's index-construction phase;
    // account them like the flat-index builds so benches can report the
    // time separately.
    Stopwatch sw;
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        const Relation& rel = db.relations[PairEdgeIndex(k, i, j)];
        pair_sets.push_back(PairSet(rel, i, j));
        Bump(ec.stats().index_builds);
        Bump(ec.stats().index_build_rows, static_cast<int64_t>(rel.size()));
      }
    }
    Bump(ec.stats().index_build_ns,
         static_cast<int64_t>(sw.Seconds() * 1e9));
  }

  const int na = static_cast<int>(la.size());
  const int nb = static_cast<int>(lb.size());
  const int nc = static_cast<int>(lc.size());
  auto compat = [&](const std::vector<int>& g1, const Relation& r1,
                    size_t row1, const std::vector<int>& g2,
                    const Relation& r2, size_t row2) {
    return Compatible(k, db, pair_sets, g1, r1, row1, g2, r2, row2);
  };
  // The compatibility fills and the final check only read the shared pair
  // sets; rows are partitioned across threads, so the row-local writes
  // (the bit words of row i) never conflict. The O(n1 * n2) fills poll
  // the guard at every chunk claim.
  auto fill = [&](const std::vector<int>& g1, const Relation& r1, int n1,
                  const std::vector<int>& g2, const Relation& r2, int n2) {
    BitMatrix m(n1, n2);
    ParallelFor(ec, FaultSite::kMm, n1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        for (int j = 0; j < n2; ++j) {
          if (compat(g1, r1, i, g2, r2, j)) m.Set(i, j);
        }
      }
    });
    return m;
  };
  const BitMatrix mab = fill(ga, la, na, gb, lb, nb);
  const BitMatrix mbc = fill(gb, lb, nb, gc, lc, nc);
  Bump(ec.stats().mm_products);
  const BitMatrix p = BooleanProduct(mab, mbc, kernel, &ec);
  return ParallelAnyOf(ec.pool(), na, [&](int64_t i) {
    for (int j = 0; j < nc; ++j) {
      if (p.Get(i, j) && compat(ga, la, i, gc, lc, j)) return true;
    }
    return false;
  });
}

}  // namespace fmmsw
