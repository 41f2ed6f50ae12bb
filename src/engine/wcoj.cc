#include "engine/wcoj.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "core/exec_context.h"
#include "relation/ops.h"
#include "relation/row_sort.h"
#include "util/check.h"

namespace fmmsw {

namespace {

/// Sorted-range trie: each relation's rows are materialized once in a flat
/// buffer, columns permuted into the global instantiation order and rows
/// sorted lexicographically. A trie node is then a contiguous range of
/// that buffer; the children at depth d are the runs of equal values in
/// column d, and probing a value is a galloping search within the range.
/// No per-node allocation, no pointer chasing (compare the previous
/// std::map<Value, Trie> representation), and candidate enumeration walks
/// contiguous memory.
struct IndexedRelation {
  std::vector<int> vars;  // schema vars in instantiation order
  int arity = 0;
  std::vector<Value> data;  // sorted rows, columns in `vars` order

  Value At(uint32_t pos, size_t level) const {
    return data[static_cast<size_t>(pos) * arity + level];
  }
  uint32_t rows() const {
    return static_cast<uint32_t>(data.size() /
                                 std::max<size_t>(arity, 1));
  }
};

struct Range {
  uint32_t begin, end;
  uint32_t size() const { return end - begin; }
};

/// Mutable enumeration state: one range stack per relation plus the
/// current partial assignment. The trie data itself is shared read-only,
/// so parallel workers each own an EnumState and recurse independently.
struct EnumState {
  std::vector<std::vector<Range>> ranges;
  std::vector<Value> assignment;
  /// Per-worker run counter amortizing the guard polls of EnumerateRuns:
  /// persists across calls so short ranges still accumulate toward the
  /// next poll instead of resetting below the mask every time.
  uint32_t poll_tick = 0;
};

class GenericJoin {
 public:
  GenericJoin(const Hypergraph& h, const QueryInput& db,
              const std::vector<int>& order, ExecContext& ec)
      : order_(order), guard_(&ec.guard()), trie_charge_(ec) {
    FMMSW_CHECK(db.relations.size() == h.edges().size());
    // Position of each variable in the instantiation order.
    std::vector<int> pos(kMaxVars, -1);
    for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (const Relation& r : db.relations) {
      IndexedRelation ir;
      ir.vars = r.vars();
      ir.arity = r.arity();
      total_rows_ += r.size();
      // contracts: allow(no-comparator-sort) sorts <= kMaxVars schema
      // variables once per relation at setup, not tuples.
      std::sort(ir.vars.begin(), ir.vars.end(),
                [&](int a, int b) { return pos[a] < pos[b]; });
      std::vector<int> cols;
      for (int v : ir.vars) cols.push_back(r.ColumnOf(v));
      // Trie buffers live for the whole join; charging before each build
      // lets a memory budget stop the query before the allocation, not
      // after.
      trie_charge_.Add(static_cast<int64_t>(r.size()) *
                       static_cast<int64_t>(cols.size()) * sizeof(Value));
      // The trie buffer is the projection onto `cols` in sorted row
      // order: pack those columns, radix-sort the packed keys
      // (comparator-free, pool-parallel for large relations), unpack
      // once. Relations whose column order matches the instantiation
      // order arrive presorted and skip the passes entirely.
      SortProjectedRows(r, cols, ec, &ir.data);
      rels_.push_back(std::move(ir));
    }
  }

  size_t total_rows() const { return total_rows_; }

  EnumState MakeState() const {
    EnumState st;
    st.ranges.resize(rels_.size());
    for (size_t i = 0; i < rels_.size(); ++i) {
      st.ranges[i].reserve(order_.size() + 2);
      st.ranges[i].push_back({0, rels_[i].rows()});
    }
    st.assignment.assign(kMaxVars, 0);
    return st;
  }

  /// Visits every satisfying assignment; `emit` returns false to stop the
  /// enumeration early (Boolean mode).
  template <typename Emit>
  bool Run(const Emit& emit) const {
    EnumState st = MakeState();
    return Recurse(&st, 0, emit);
  }

  // ---- Top-level task fan-out ----------------------------------------
  // The candidate runs of the first variable become independent subtrees:
  // each task pins the first variable to one matching value (with the
  // per-relation subranges already resolved) and a worker enumerates the
  // rest with its own range stacks.

  /// Expands depth 0 into tasks. Returns false (leaving no tasks) when
  /// the first variable is unconstrained — callers fall back to the
  /// serial path.
  bool CollectTopTasks() {
    task_values_.clear();
    task_ranges_.clear();
    active_.clear();
    if (order_.empty()) return false;
    const int v = order_[0];
    for (size_t i = 0; i < rels_.size(); ++i) {
      if (!rels_[i].vars.empty() && rels_[i].vars[0] == v) {
        active_.push_back(i);
      }
    }
    if (active_.empty()) return false;
    size_t pivot_a = 0;
    for (size_t a = 1; a < active_.size(); ++a) {
      if (rels_[active_[a]].rows() < rels_[active_[pivot_a]].rows()) {
        pivot_a = a;
      }
    }
    const IndexedRelation& pr = rels_[active_[pivot_a]];
    const uint32_t pend = pr.rows();
    std::vector<uint32_t> cursor(active_.size(), 0);
    std::vector<Range> sub(active_.size());
    uint32_t pos = 0;
    uint32_t runs = 0;
    while (pos < pend) {
      if ((++runs & 1023) == 0) guard_->Poll(FaultSite::kWcoj);
      const Value value = pr.At(pos, 0);
      uint32_t run_end = pos + 1;
      while (run_end < pend && pr.At(run_end, 0) == value) ++run_end;
      bool ok = true;
      for (size_t a = 0; a < active_.size(); ++a) {
        if (a == pivot_a) {
          sub[a] = {pos, run_end};
          continue;
        }
        const IndexedRelation& ir = rels_[active_[a]];
        const Range s = Seek(ir, 0, cursor[a], ir.rows(), value);
        cursor[a] = s.end;
        if (s.size() == 0) {
          ok = false;
          break;
        }
        sub[a] = s;
      }
      if (ok) {
        task_values_.push_back(value);
        task_ranges_.insert(task_ranges_.end(), sub.begin(), sub.end());
      }
      pos = run_end;
    }
    return true;
  }

  size_t task_count() const { return task_values_.size(); }

  /// Runs one top-level task on the given worker state; the state's
  /// stacks are rebalanced before returning. Returns false if `emit`
  /// stopped the enumeration.
  template <typename Emit>
  bool RunTask(EnumState* st, size_t task, const Emit& emit) const {
    const size_t na = active_.size();
    for (size_t a = 0; a < na; ++a) {
      std::vector<Range>& stack = st->ranges[active_[a]];
      stack.resize(1);
      stack.push_back(task_ranges_[task * na + a]);
    }
    st->assignment[order_[0]] = task_values_[task];
    const bool keep_going = Recurse(st, 1, emit);
    for (size_t a = 0; a < na; ++a) st->ranges[active_[a]].resize(1);
    return keep_going;
  }

  // ---- Depth-1 cooperative execution (sub-level stealing) ------------
  // A single heavy top-level task serializes the whole join if only whole
  // tasks are scheduled. For tasks whose depth-1 candidate range is large
  // enough, the range is instead *claimed in position blocks* from a
  // shared atomic cursor: the task's first claimant and any worker that
  // has run out of whole tasks pull blocks from the same cursor, so a
  // heavy hitter is split across however many workers go dry. A value run
  // is processed by the claimant of its first position (claimants skip a
  // run straddling in from the left and finish one extending past their
  // block), so the claims partition the depth-1 runs exactly — every
  // assignment is enumerated once, for any interleaving of claims.

  /// Resolves the depth-1 active set plus, per task, the pivot relation
  /// and its candidate range. Returns false when depth 1 cannot be
  /// executed cooperatively (single-variable order, or a second variable
  /// constrained by no relation).
  bool PrepareDepth1() {
    d1_active_.clear();
    d1_pivot_.clear();
    d1_range_.clear();
    if (order_.size() < 2) return false;
    const int v = order_[1];
    for (size_t i = 0; i < rels_.size(); ++i) {
      const bool active0 =
          std::find(active_.begin(), active_.end(), i) != active_.end();
      const size_t level = active0 ? 1 : 0;
      if (level < rels_[i].vars.size() && rels_[i].vars[level] == v) {
        d1_active_.push_back(i);
      }
    }
    if (d1_active_.empty() || d1_active_.size() > 64) return false;
    const size_t nt = task_count();
    d1_pivot_.resize(nt);
    d1_range_.resize(nt);
    for (size_t t = 0; t < nt; ++t) {
      size_t best = d1_active_[0];
      Range brange = RangeAtDepth1(t, best);
      for (size_t a = 1; a < d1_active_.size(); ++a) {
        const Range cand = RangeAtDepth1(t, d1_active_[a]);
        if (cand.size() < brange.size()) {
          best = d1_active_[a];
          brange = cand;
        }
      }
      d1_pivot_[t] = best;
      d1_range_[t] = brange;
    }
    return true;
  }

  uint32_t D1Begin(size_t task) const { return d1_range_[task].begin; }
  uint32_t D1End(size_t task) const { return d1_range_[task].end; }
  uint32_t D1Span(size_t task) const { return d1_range_[task].size(); }

  /// Cooperative execution of one task: claims depth-1 position blocks
  /// from `cursor` until the range is exhausted or `stop()` turns true
  /// (polled per block — a Boolean caller's global early exit), calling
  /// begin_block(task, lo) before each claimed block's enumeration.
  /// Returns false if `emit` stopped the run (the cursor is then poisoned
  /// so other participants stop claiming).
  template <typename Stop, typename BeginBlock, typename Emit>
  bool RunTaskCoop(EnumState* st, size_t task,
                   std::atomic<uint32_t>* cursor, uint32_t block,
                   const Stop& stop, const BeginBlock& begin_block,
                   const Emit& emit) const {
    const size_t na = active_.size();
    for (size_t a = 0; a < na; ++a) {
      std::vector<Range>& stack = st->ranges[active_[a]];
      stack.resize(1);
      stack.push_back(task_ranges_[task * na + a]);
    }
    st->assignment[order_[0]] = task_values_[task];
    const uint32_t end = d1_range_[task].end;
    bool keep_going = true;
    while (keep_going && !stop()) {
      // relaxed: work-claim RMW — atomicity alone hands each depth-1
      // position block to exactly one claimant (the claim partition is
      // what determinism rests on, and it holds under any ordering);
      // claimed blocks read only the shared immutable trie, and worker
      // outputs are published by the pool's fan-in.
      const uint32_t lo = cursor->fetch_add(block, std::memory_order_relaxed);
      if (lo >= end) break;
      guard_->Poll(FaultSite::kWcoj);
      begin_block(task, lo);
      keep_going = RunBlock(st, task, lo, std::min(lo + block, end), emit);
    }
    // relaxed: poison latch — saturating the cursor stops further
    // claims; racing claimants that already passed the fetch_add just
    // finish their block, which the early-exit contract permits.
    if (!keep_going) cursor->store(end, std::memory_order_relaxed);
    for (size_t a = 0; a < na; ++a) st->ranges[active_[a]].resize(1);
    return keep_going;
  }

 private:
  /// Enumerates the depth-1 runs *starting* in [lo, hi) of the task's
  /// pivot range (a straddling head run is skipped, a tail run is
  /// finished past hi) and recurses below them.
  template <typename Emit>
  bool RunBlock(EnumState* st, size_t task, uint32_t lo, uint32_t hi,
                const Emit& emit) const {
    const size_t pivot = d1_pivot_[task];
    const IndexedRelation& pr = rels_[pivot];
    const size_t plevel = st->ranges[pivot].size() - 1;
    const Range prange = d1_range_[task];
    uint32_t pos = lo;
    if (pos > prange.begin &&
        pr.At(pos, plevel) == pr.At(pos - 1, plevel)) {
      pos = UpperBound(pr, plevel, pos, prange.end, pr.At(pos, plevel));
    }
    return EnumerateRuns(st, d1_active_.data(), d1_active_.size(), pivot,
                         prange, pos, hi, /*next_depth=*/2, emit);
  }

  /// The one run-enumeration kernel shared by Recurse and RunBlock: walks
  /// the value runs of `pivot` whose start position lies in [lo, hi)
  /// (each run extends to its true end within prange, possibly past hi),
  /// Seek-probes the other `actives` with forward-only cursors, pushes
  /// the matched subranges, recurses at `next_depth` and unwinds. The
  /// bit-identical-across-thread-counts guarantee rests on serial and
  /// cooperative execution sharing this single implementation.
  template <typename Emit>
  bool EnumerateRuns(EnumState* st, const size_t* actives, size_t n_active,
                     size_t pivot, const Range& prange, uint32_t lo,
                     uint32_t hi, size_t next_depth, const Emit& emit) const {
    const IndexedRelation& pr = rels_[pivot];
    const size_t plevel = st->ranges[pivot].size() - 1;
    const int v = order_[next_depth - 1];
    // Forward-only probe cursors, one per active relation.
    uint32_t cursor[64];
    for (size_t a = 0; a < n_active; ++a) {
      cursor[a] = st->ranges[actives[a]].back().begin;
    }
    uint32_t pos = lo;
    while (pos < hi) {
      // Morsel-boundary poll, confined to the top two instantiation
      // levels and amortized to every 256th run (the worker-local tick
      // keeps the armed slow path — an atomic fetch_add on a shared
      // counter — off the per-run critical path; depth-1 coop block
      // claims still poll unconditionally, bounding abort latency).
      if (next_depth <= 2 && (++st->poll_tick & 255) == 0) guard_->Poll(FaultSite::kWcoj);
      const Value value = pr.At(pos, plevel);
      uint32_t run_end = pos + 1;
      while (run_end < prange.end && pr.At(run_end, plevel) == value) {
        ++run_end;
      }
      bool ok = true;
      size_t pushed = 0;
      for (size_t a = 0; a < n_active; ++a) {
        const size_t i = actives[a];
        if (i == pivot) continue;
        const Range sub = Seek(rels_[i], st->ranges[i].size() - 1, cursor[a],
                               st->ranges[i].back().end, value);
        cursor[a] = sub.end;
        if (sub.size() == 0) {
          ok = false;
          break;
        }
        st->ranges[i].push_back(sub);
        ++pushed;
      }
      if (!ok) {
        // Unwind the subranges pushed before the miss.
        for (size_t a = 0; a < n_active && pushed > 0; ++a) {
          const size_t i = actives[a];
          if (i == pivot) continue;
          st->ranges[i].pop_back();
          --pushed;
        }
        pos = run_end;
        continue;
      }
      st->ranges[pivot].push_back({pos, run_end});
      st->assignment[v] = value;
      const bool keep_going = Recurse(st, next_depth, emit);
      for (size_t a = 0; a < n_active; ++a) st->ranges[actives[a]].pop_back();
      if (!keep_going) return false;
      pos = run_end;
    }
    return true;
  }

  /// Depth-1 range of `rel` within task `t`: the task's resolved subrange
  /// for depth-0 active relations, the full relation otherwise.
  Range RangeAtDepth1(size_t t, size_t rel) const {
    for (size_t a = 0; a < active_.size(); ++a) {
      if (active_[a] == rel) return task_ranges_[t * active_.size() + a];
    }
    return {0, rels_[rel].rows()};
  }

  /// First position in [lo, hi) whose `level` column is >= v.
  static uint32_t LowerBound(const IndexedRelation& ir, size_t level,
                             uint32_t lo, uint32_t hi, Value v) {
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (ir.At(mid, level) < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First position in [lo, hi) whose `level` column is > v.
  static uint32_t UpperBound(const IndexedRelation& ir, size_t level,
                             uint32_t lo, uint32_t hi, Value v) {
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (ir.At(mid, level) <= v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Subrange of [from, end) holding value `v` in column `level`. The
  /// candidate values arrive in increasing order, so `from` is a cursor
  /// that only moves forward: gallop to bracket v, then binary search —
  /// amortized linear in the range instead of log per probe.
  static Range Seek(const IndexedRelation& ir, size_t level, uint32_t from,
                    uint32_t end, Value v) {
    uint32_t lo = from, step = 1;
    while (lo < end && ir.At(lo, level) < v) {
      from = lo + 1;
      lo += step;
      step <<= 1;
    }
    lo = LowerBound(ir, level, from, std::min(lo, end), v);
    if (lo >= end || ir.At(lo, level) != v) return {lo, lo};
    uint32_t hi = lo + 1, hstep = 1;
    uint32_t hfrom = hi;
    while (hi < end && ir.At(hi, level) == v) {
      hfrom = hi + 1;
      hi += hstep;
      hstep <<= 1;
    }
    hi = UpperBound(ir, level, hfrom, std::min(hi, end), v);
    return {lo, hi};
  }

  template <typename Emit>
  bool Recurse(EnumState* st, size_t depth, const Emit& emit) const {
    if (depth == order_.size()) return emit(st->assignment);
    const int v = order_[depth];
    // Relations whose next trie level is v.
    size_t active[64];
    size_t n_active = 0;
    for (size_t i = 0; i < rels_.size(); ++i) {
      const size_t level = st->ranges[i].size() - 1;
      if (level < rels_[i].vars.size() && rels_[i].vars[level] == v) {
        FMMSW_CHECK(n_active < 64);
        active[n_active++] = i;
      }
    }
    if (n_active == 0) {
      // Unconstrained variable (possible after projections); nothing to
      // iterate — this only happens for vars absent from every relation.
      return Recurse(st, depth + 1, emit);
    }
    // Iterate the relation with the smallest range, probing the others.
    size_t pivot = active[0];
    for (size_t a = 1; a < n_active; ++a) {
      if (st->ranges[active[a]].back().size() <
          st->ranges[pivot].back().size()) {
        pivot = active[a];
      }
    }
    const Range prange = st->ranges[pivot].back();
    return EnumerateRuns(st, active, n_active, pivot, prange, prange.begin,
                         prange.end, depth + 1, emit);
  }

  std::vector<int> order_;
  QueryGuard* guard_;
  MemCharge trie_charge_;  ///< trie buffers, held for the join's lifetime
  std::vector<IndexedRelation> rels_;
  size_t total_rows_ = 0;
  std::vector<size_t> active_;     // relations constrained at depth 0
  std::vector<Value> task_values_;
  std::vector<Range> task_ranges_;  // task_count() * active_.size()
  std::vector<size_t> d1_active_;  // relations constrained at depth 1
  std::vector<size_t> d1_pivot_;   // per task: depth-1 pivot relation
  std::vector<Range> d1_range_;    // per task: pivot's depth-1 range
};

std::vector<int> DefaultOrder(const Hypergraph& h) {
  return h.vertices().Members();
}

/// Minimum input size / task fan-out before the pool is engaged: tiny
/// joins (unit tests, inner TD bags) stay serial.
constexpr size_t kMinParallelRows = 512;
constexpr size_t kMinParallelTasks = 4;

/// Expands top-level tasks if the parallel path applies; returns the task
/// count (0 = run serial).
size_t PrepareParallel(ExecContext& ec, GenericJoin* gj) {
  if (ec.threads() <= 1) return 0;
  if (gj->total_rows() < kMinParallelRows) return 0;
  if (!gj->CollectTopTasks()) return 0;
  if (gj->task_count() < kMinParallelTasks) return 0;
  ExecStats& st = ec.stats();
  Bump(st.wcoj_parallel_runs);
  Bump(st.wcoj_tasks, static_cast<int64_t>(gj->task_count()));
  return gj->task_count();
}

/// Minimum depth-1 span before a task runs cooperatively: below this the
/// shared-cursor claims cost more than they balance.
constexpr uint32_t kCoopMinSpan = 1024;

/// Claim granularity: small enough that the tail of a heavy task is
/// spread across workers, large enough to amortize the atomic claim.
uint32_t CoopBlock(uint32_t span, int threads) {
  return std::max<uint32_t>(
      64, span / (16u * static_cast<uint32_t>(threads)));
}

/// Shared scheduling state of one parallel WCOJ execution: which tasks
/// run cooperatively and their depth-1 claim cursors.
struct CoopPlan {
  std::vector<uint8_t> coop;                   // per task
  std::vector<std::atomic<uint32_t>> cursors;  // per task: next depth-1 pos

  CoopPlan(GenericJoin* gj, size_t ntasks)
      : coop(ntasks, 0), cursors(ntasks) {
    if (!gj->PrepareDepth1()) return;
    for (size_t t = 0; t < ntasks; ++t) {
      if (gj->D1Span(t) >= kCoopMinSpan) {
        coop[t] = 1;
        // relaxed: initialization before the fan-out — DriveParallel's
        // pool handshake publishes the cursors to every worker.
        cursors[t].store(gj->D1Begin(t), std::memory_order_relaxed);
      }
    }
  }

  /// Cooperative task with the most unclaimed depth-1 positions (the
  /// heaviest in-flight task a dry worker should help), or SIZE_MAX.
  size_t Heaviest(const GenericJoin& gj) const {
    size_t best = SIZE_MAX;
    uint32_t best_left = 0;
    for (size_t t = 0; t < coop.size(); ++t) {
      if (!coop[t]) continue;
      // relaxed: scheduling heuristic — a stale cursor only makes a dry
      // worker pick a lighter task (or retry); actual work is still
      // handed out solely by the claiming fetch_add in RunTaskCoop.
      const uint32_t cur = cursors[t].load(std::memory_order_relaxed);
      const uint32_t end = gj.D1End(t);
      const uint32_t left = cur < end ? end - cur : 0;
      if (left > best_left) {
        best_left = left;
        best = t;
      }
    }
    return best;
  }
};

/// The one parallel WCOJ driver, shared by Boolean/Join/Count: claim
/// whole tasks (cooperative ones through their shared depth-1 cursors),
/// then let dry workers steal depth-1 blocks from the heaviest in-flight
/// task. `make_hooks(worker)` builds the per-worker callbacks:
///   - Emit(assignment) -> bool : consume one result (false = stop all)
///   - BeginBlock(task, lo)     : a new output segment starts (Join tags
///                                its merge segments here; no-op for
///                                Boolean/Count)
///   - Stop() -> bool           : global early-exit poll
/// Per-worker cleanup (e.g. flushing a local count) goes in the hooks
/// object's destructor, which runs on every exit path.
template <typename MakeHooks>
void DriveParallel(ExecContext& ec, GenericJoin& gj, size_t ntasks,
                   const MakeHooks& make_hooks) {
  CoopPlan plan(&gj, ntasks);
  ExecStats& stats = ec.stats();
  QueryGuard& guard = ec.guard();
  const int nthreads = ec.threads();
  std::atomic<int64_t> next(0);
  ec.pool().Run([&](int w) {
    EnumState st = gj.MakeState();
    auto hooks = make_hooks(w);
    auto emit = [&](const std::vector<Value>& a) { return hooks.Emit(a); };
    auto begin_block = [&](size_t t, uint32_t lo) { hooks.BeginBlock(t, lo); };
    auto steal_block = [&](size_t t, uint32_t lo) {
      Bump(stats.wcoj_steal_claims);
      hooks.BeginBlock(t, lo);
    };
    auto stop = [&] { return hooks.Stop(); };
    while (!stop()) {
      // relaxed: work-claim RMW — each whole task claimed exactly once;
      // outputs are published by the pool's fan-in (see RunTaskCoop).
      const int64_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= static_cast<int64_t>(ntasks)) break;
      guard.Poll(FaultSite::kWcoj);
      if (plan.coop[t]) {
        Bump(stats.wcoj_coop_tasks);
        if (!gj.RunTaskCoop(&st, t, &plan.cursors[t],
                            CoopBlock(gj.D1Span(t), nthreads), stop,
                            begin_block, emit)) {
          return;
        }
      } else {
        begin_block(t, 0);
        if (!gj.RunTask(&st, t, emit)) return;
      }
    }
    // Dry: steal depth-1 blocks from the heaviest unfinished coop task.
    while (!stop()) {
      guard.Poll(FaultSite::kWcoj);
      const size_t t = plan.Heaviest(gj);
      if (t == SIZE_MAX) return;
      if (!gj.RunTaskCoop(&st, t, &plan.cursors[t],
                          CoopBlock(gj.D1Span(t), nthreads), stop,
                          steal_block, emit)) {
        return;
      }
    }
  });
}

}  // namespace

bool WcojBoolean(const Hypergraph& h, const QueryInput& db, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  Bump(ec.stats().wcoj_runs);
  GenericJoin gj(h, db, DefaultOrder(h), ec);
  const size_t ntasks = PrepareParallel(ec, &gj);
  if (ntasks == 0) {
    bool found = false;
    gj.Run([&](const std::vector<Value>&) {
      found = true;
      return false;  // stop at the first witness
    });
    return found;
  }
  std::atomic<bool> found(false);
  DriveParallel(ec, gj, ntasks, [&](int) {
    struct Hooks {
      std::atomic<bool>* found;
      bool Emit(const std::vector<Value>&) {
        // relaxed: idempotent one-way latch; the authoritative read is
        // the fan-in-ordered load after DriveParallel returns.
        found->store(true, std::memory_order_relaxed);
        return false;  // stop at the first witness
      }
      void BeginBlock(size_t, uint32_t) {}
      bool Stop() const {
        // relaxed: early-exit hint — a stale false only costs redundant
        // side-effect-free enumeration before the next check.
        return found->load(std::memory_order_relaxed);
      }
    };
    return Hooks{&found};
  });
  return found.load();
}

Relation WcojJoin(const Hypergraph& h, const QueryInput& db, VarSet output_vars,
                  const std::vector<int>* order, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  Bump(ec.stats().wcoj_runs);
  const std::vector<int> ord = order ? *order : DefaultOrder(h);
  GenericJoin gj(h, db, ord, ec);
  Relation out(output_vars & h.vertices());
  const std::vector<int> out_vars = out.vars();
  if (out_vars.empty()) {
    // Nullary output: an existence test.
    if (WcojBoolean(h, db, ctx)) out.Add({});
    return out;
  }
  QueryGuard& guard = ec.guard();
  const int64_t row_bytes =
      static_cast<int64_t>(out_vars.size()) * sizeof(Value);
  constexpr int64_t kEmitBatch = 1024;  // row-limit/charge flush cadence
  const size_t ntasks = PrepareParallel(ec, &gj);
  if (ntasks == 0) {
    std::vector<Value> tuple(out_vars.size());
    MemCharge charge(ec);
    int64_t emitted = 0;
    gj.Run([&](const std::vector<Value>& assignment) {
      for (size_t i = 0; i < out_vars.size(); ++i) {
        tuple[i] = assignment[out_vars[i]];
      }
      out.AddRow(tuple.data());
      if ((++emitted & (kEmitBatch - 1)) == 0) {
        guard.CountRows(kEmitBatch);
        charge.Add(kEmitBatch * row_bytes);
      }
      return true;
    });
    out.SortAndDedupe(&ec);
    return out;
  }
  // Task fan-out with depth-1 stealing. Each worker appends tuples to its
  // own buffer, carved into segments tagged (task, depth-1 block start).
  // Claims partition the depth-1 runs of every cooperative task exactly,
  // so concatenating the segments in ascending tag order reproduces the
  // serial enumeration order no matter which worker claimed what — and
  // the canonical sort below makes the relation bit-identical across
  // thread counts either way.
  struct WorkerOut {
    std::vector<Value> data;
    std::vector<std::pair<uint64_t, size_t>> segs;  // (tag, start offset)
  };
  std::vector<WorkerOut> outs(static_cast<size_t>(ec.threads()));
  DriveParallel(ec, gj, ntasks, [&](int w) {
    struct Hooks {
      WorkerOut* out;
      std::vector<Value> tuple;
      const std::vector<int>* out_vars;
      QueryGuard* guard;
      int64_t row_bytes;
      int64_t emitted = 0;
      int64_t charged = 0;
      bool Emit(const std::vector<Value>& assignment) {
        for (size_t i = 0; i < out_vars->size(); ++i) {
          tuple[i] = assignment[(*out_vars)[i]];
        }
        out->data.insert(out->data.end(), tuple.begin(), tuple.end());
        if ((++emitted & (kEmitBatch - 1)) == 0) {
          // Charge before CountRows: if either throws, the destructor
          // below releases exactly what was recorded.
          charged += kEmitBatch * row_bytes;
          guard->ChargeMem(kEmitBatch * row_bytes);
          guard->CountRows(kEmitBatch);
        }
        return true;
      }
      void BeginBlock(size_t task, uint32_t lo) {
        out->segs.push_back(
            {(static_cast<uint64_t>(task) << 32) | lo, out->data.size()});
      }
      bool Stop() const { return false; }
      Hooks(const Hooks&) = delete;
      Hooks& operator=(const Hooks&) = delete;
      Hooks(WorkerOut* o, std::vector<Value> t, const std::vector<int>* ov,
            QueryGuard* g, int64_t rb)
          : out(o), tuple(std::move(t)), out_vars(ov), guard(g),
            row_bytes(rb) {}
      ~Hooks() {
        if (charged != 0) guard->ReleaseMem(charged);
      }
    };
    return Hooks{&outs[w], std::vector<Value>(out_vars.size()), &out_vars,
                 &guard, row_bytes};
  });
  // Deterministic merge: segments in ascending (task, block) order.
  struct MergeSeg {
    uint64_t tag;
    size_t w, begin, end;
  };
  std::vector<MergeSeg> merged;
  for (size_t w = 0; w < outs.size(); ++w) {
    const WorkerOut& o = outs[w];
    for (size_t s = 0; s < o.segs.size(); ++s) {
      const size_t begin = o.segs[s].second;
      const size_t end =
          s + 1 < o.segs.size() ? o.segs[s + 1].second : o.data.size();
      if (end > begin) merged.push_back({o.segs[s].first, w, begin, end});
    }
  }
  // contracts: allow(no-comparator-sort) O(workers * tasks) segment
  // descriptors once per parallel join, not tuples.
  std::sort(
      merged.begin(), merged.end(),
      [](const MergeSeg& a, const MergeSeg& b) { return a.tag < b.tag; });
  int64_t merged_bytes = 0;
  for (const MergeSeg& m : merged) {
    merged_bytes += static_cast<int64_t>(m.end - m.begin) * sizeof(Value);
  }
  MemCharge merge_charge(ec, merged_bytes);
  for (const MergeSeg& m : merged) {
    out.AddRows(&outs[m.w].data[m.begin],
                (m.end - m.begin) / out_vars.size());
  }
  // Canonical sort: makes the merged relation bit-identical across
  // thread counts; itself parallel (and itself thread-count-invariant)
  // through the wide-key layer.
  out.SortAndDedupe(&ec);
  return out;
}

int64_t WcojCount(const Hypergraph& h, const QueryInput& db, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  Bump(ec.stats().wcoj_runs);
  GenericJoin gj(h, db, DefaultOrder(h), ec);
  const size_t ntasks = PrepareParallel(ec, &gj);
  if (ntasks == 0) {
    int64_t count = 0;
    gj.Run([&](const std::vector<Value>&) {
      ++count;
      return true;
    });
    return count;
  }
  std::atomic<int64_t> total(0);
  DriveParallel(ec, gj, ntasks, [&](int) {
    struct Hooks {
      std::atomic<int64_t>* total = nullptr;
      int64_t local = 0;
      Hooks() = default;
      Hooks(Hooks&& o) noexcept : total(o.total), local(o.local) {
        o.total = nullptr;  // only the final owner flushes
      }
      bool Emit(const std::vector<Value>&) {
        ++local;
        return true;
      }
      void BeginBlock(size_t, uint32_t) {}
      bool Stop() const { return false; }
      // Flush on every exit path of the worker.
      ~Hooks() {
        if (total != nullptr) {
          // relaxed: per-worker partial sum — commutative RMW, read
          // only after the pool fan-in orders it.
          total->fetch_add(local, std::memory_order_relaxed);
        }
      }
    };
    Hooks h;
    h.total = &total;
    return h;
  });
  return total.load();
}

}  // namespace fmmsw
