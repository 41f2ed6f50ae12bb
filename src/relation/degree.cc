#include "relation/degree.h"

#include <algorithm>
#include <cmath>

#include "core/exec_context.h"
#include "relation/ops.h"
#include "relation/row_sort.h"

namespace fmmsw {

namespace {

/// Row indices of `r` sorted by the X-key columns, then the Y columns —
/// one sort after which X-groups are contiguous runs and distinct Y values
/// within a group are adjacent. Replaces the per-group std::map/std::set
/// bookkeeping of the naive implementation. Every arity routes through
/// the wide-key layer (relation/row_sort.h): the (X, Y) columns pack into
/// 1..8 order-preserving uint64 words with the row index as a payload
/// word, sorted by stable LSD radix on the context's pool and arena —
/// no comparator fallback for 3+ grouping columns anymore, which is also
/// what the PANDA executor's sort-order cache fills run through. Inside a
/// SortOrderScope the computed order is cached per (buffer, rows, X, Y)
/// and reused (the order is threshold-independent, so proof-sequence
/// steps re-partitioning the same pinned table skip the sort entirely).
struct GroupedOrder {
  std::vector<int> xcols, ycols;
  std::vector<uint32_t> order;

  GroupedOrder(const Relation& r, VarSet y, VarSet x,
               ExecContext* ctx = nullptr) {
    for (int v : (x & r.schema()).Members()) xcols.push_back(r.ColumnOf(v));
    for (int v : ((y - x) & r.schema()).Members()) {
      ycols.push_back(r.ColumnOf(v));
    }
    const void* key_data = r.empty() ? nullptr : r.Row(0);
    if (ctx != nullptr && ctx->sort_cache_active()) {
      const std::vector<uint32_t>* cached =
          ctx->FindSortOrder(key_data, r.size(), x.mask(), y.mask());
      if (cached != nullptr) {
        Bump(ctx->stats().sort_order_hits);
        order = *cached;
        return;
      }
    }
    std::vector<int> cols = xcols;
    cols.insert(cols.end(), ycols.begin(), ycols.end());
    SortedRowOrder(r, cols, ExecContext::Resolve(ctx), &order);
    if (ctx != nullptr && ctx->sort_cache_active()) {
      ctx->StoreSortOrder(key_data, r.size(), x.mask(), y.mask(), order);
    }
  }

  bool SameX(const Relation& r, uint32_t a, uint32_t b) const {
    const Value* ra = r.Row(a);
    const Value* rb = r.Row(b);
    for (int c : xcols) {
      if (ra[c] != rb[c]) return false;
    }
    return true;
  }

  bool SameY(const Relation& r, uint32_t a, uint32_t b) const {
    const Value* ra = r.Row(a);
    const Value* rb = r.Row(b);
    for (int c : ycols) {
      if (ra[c] != rb[c]) return false;
    }
    return true;
  }

  /// Calls fn(begin, end, distinct_y) for every X-group [begin, end) of
  /// the sorted order.
  template <typename Fn>
  void ForEachGroup(const Relation& r, const Fn& fn) const {
    size_t begin = 0;
    while (begin < order.size()) {
      size_t end = begin + 1;
      int64_t distinct = 1;
      while (end < order.size() && SameX(r, order[begin], order[end])) {
        if (!SameY(r, order[end - 1], order[end])) ++distinct;
        ++end;
      }
      fn(begin, end, distinct);
      begin = end;
    }
  }
};

}  // namespace

int64_t DegreeThreshold(double n, double exponent) {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::pow(n, exponent))));
}

int64_t Degree(const Relation& r, VarSet y, VarSet x) {
  if (r.empty()) return 0;
  const GroupedOrder g(r, y, x);
  int64_t best = 0;
  g.ForEachGroup(r, [&](size_t, size_t, int64_t distinct) {
    best = std::max(best, distinct);
  });
  return best;
}

DegreePartition PartitionByDegree(const Relation& r, VarSet y, VarSet x,
                                  int64_t threshold, ExecContext* ctx) {
  Bump(ExecContext::Resolve(ctx).stats().partition_calls);
  DegreePartition out;
  out.heavy = Relation(x & r.schema());
  out.light = Relation(r.schema());
  const GroupedOrder g(r, y, x, ctx);
  Value key[kMaxVars];
  g.ForEachGroup(r, [&](size_t begin, size_t end, int64_t distinct) {
    if (distinct > threshold) {
      const Value* row = r.Row(g.order[begin]);
      for (size_t i = 0; i < g.xcols.size(); ++i) key[i] = row[g.xcols[i]];
      out.heavy.AddRow(key);
    } else {
      for (size_t i = begin; i < end; ++i) {
        out.light.AddRow(r.Row(g.order[i]));
      }
    }
  });
  return out;
}

std::vector<Relation> DegreeBuckets(const Relation& r, VarSet y, VarSet x,
                                    ExecContext* ctx) {
  std::vector<Relation> buckets;
  const GroupedOrder g(r, y, x, ctx);
  g.ForEachGroup(r, [&](size_t begin, size_t end, int64_t distinct) {
    int level = 0;
    while ((1LL << (level + 1)) <= distinct) ++level;
    while (static_cast<int>(buckets.size()) <= level) {
      buckets.emplace_back(r.schema());
    }
    for (size_t i = begin; i < end; ++i) {
      buckets[level].AddRow(r.Row(g.order[i]));
    }
  });
  return buckets;
}

}  // namespace fmmsw
