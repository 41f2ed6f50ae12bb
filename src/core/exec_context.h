#ifndef FMMSW_CORE_EXEC_CONTEXT_H_
#define FMMSW_CORE_EXEC_CONTEXT_H_

/// \file
/// The shared execution substrate threaded from the public facade
/// (core/api) through every engine down into the relational operators and
/// the PANDA executor. One ExecContext bundles
///
///   - a thread-pool handle (the process-wide FMMSW_THREADS pool by
///     default, or a private pool of an explicit size — tests use the
///     latter to compare thread counts inside one process),
///   - reusable scratch arenas, one per worker, so hot paths (radix sort,
///     degree grouping, WCOJ worker stacks) stop re-allocating their
///     temporaries on every call, and
///   - per-op stats counters: joins/semijoins executed, tuples
///     materialized, tuples *not* materialized thanks to fused
///     existence-only probes, WCOJ task fan-out, MM kernel launches,
///     sort-order cache hits, and tracked memory (current/peak bytes).
///     Counters are relaxed atomics so operators running inside parallel
///     regions can bump them safely, and
///   - a QueryGuard: cooperative guardrails (cancellation, wall-clock
///     deadline, memory budget, max-output-rows) polled at every morsel
///     boundary of the exec pipeline and armed per run by the
///     status-returning entry points (RunGuarded below, and the
///     core/api.h Evaluate*WithRecovery ladders built on it). Each poll
///     point names its FaultSite plane, which the deterministic fault
///     harness (FaultPlan / FMMSW_FAULT_PLAN) keys on to inject
///     retryable aborts site-by-site; the recovery plane
///     (core/recovery.h) and admission controller (core/admission.h)
///     sit on top and report through the admitted/queued_ns/shed/
///     retries/degraded_runs counters.
///
/// Every operator and engine entry point accepts an `ExecContext* ctx`
/// (nullptr = the process-default context, ExecContext::Default()). An
/// ExecContext is meant to be driven by one user thread at a time; worker
/// indices passed to scratch() come from ThreadPool::Run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_status.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/thread_safety.h"

namespace fmmsw {

/// Per-op execution counters (relaxed atomics; see Bump below).
///
/// Index-build counters (the flat_index.h structures report through the
/// context they were built with):
///   - index_builds          : context-aware flat-index builds (FlatMultimap
///                             via ExistProbe/Join/Semijoin, bulk
///                             FlatInterner builds).
///   - index_sharded_builds  : the subset that took the parallel sharded
///                             path (disjoint per-shard sub-tables written
///                             by pool workers without locks).
///   - index_build_rows      : rows scanned into those indexes.
///   - index_build_ns        : nanoseconds spent inside index
///                             construction, summed across builds (and
///                             therefore across workers: builds running
///                             concurrently inside a parallel region each
///                             contribute their own elapsed time, so the
///                             total is aggregate build time and can
///                             exceed wall time). Benches subtract
///                             snapshots of this to report index-build
///                             time separately from enumeration time.
/// Wide-key sort-layer counters (relation/row_sort.h; every
/// comparator-free row sort — SortAndDedupe at any arity, the
/// generic-WCOJ trie build, degree-grouping orders — reports through the
/// context it ran on):
///   - sort_calls            : row sorts executed by the layer.
///   - sort_rows             : rows passed through those sorts.
///   - sort_parallel         : the subset that entered the pool-parallel
///                             radix regime (chunk histograms +
///                             chunk-ordered scatter; bit-identical to the
///                             serial sort, see util/radix.h — a racing
///                             fan-out on a shared pool can still degrade
///                             individual passes to the caller alone).
///   - sort_ns               : nanoseconds inside the sort layer
///                             (pack + radix + unpack), summed across
///                             calls and workers like index_build_ns.
/// WCOJ sub-level stealing counters:
///   - wcoj_coop_tasks       : top-level tasks whose depth-1 candidate
///                             range was executed cooperatively (claimed in
///                             blocks from a shared atomic cursor).
///   - wcoj_steal_claims     : depth-1 blocks claimed by a worker that had
///                             run out of whole tasks (the stealing path).
/// MM micro-kernel counters (mm/kernel.h; mm_products above counts
/// engine-level product launches, these count the kernel layer under it):
///   - mm_base_calls         : packed-panel base-case products (GemmAdd
///                             invocations: blocked slabs, Strassen cutoff
///                             leaves, rectangular in-place blocks).
///   - mm_simd_calls         : the subset that ran a vector inner kernel
///                             (AVX2; 0 under FMMSW_SIMD=off or on
///                             non-AVX2 hardware).
///   - mm_bitsliced_calls    : bit-sliced 0/1 counting products.
///   - mm_pack_ns            : nanoseconds spent packing A/B panels and
///                             bit-planes, summed across calls (and
///                             workers, like index_build_ns).
/// Contract (machine-enforced by tools/check_contracts.py): every counter
/// declared here must (a) carry a doc comment, (b) be zeroed in Reset(),
/// and (c) be printed by ToString(). Adding a counter means touching all
/// three places, or the `stats-coverage` lint fails the build.
struct ExecStats {
  std::atomic<int64_t> join_calls{0};           ///< Join operator invocations
  std::atomic<int64_t> join_output_tuples{0};   ///< tuples materialized by Join
  std::atomic<int64_t> fused_joins{0};          ///< Join calls with exist filters
  std::atomic<int64_t> fused_probe_tuples{0};   ///< join pairs probed against filters
  std::atomic<int64_t> fused_drop_tuples{0};    ///< pairs rejected, never materialized
  std::atomic<int64_t> fused_emit_tuples{0};    ///< pairs surviving every filter
  std::atomic<int64_t> semijoin_calls{0};       ///< Semijoin operator invocations
  std::atomic<int64_t> semijoin_all_calls{0};   ///< SemijoinAll (fused chain) calls
  std::atomic<int64_t> antijoin_calls{0};       ///< Antijoin operator invocations
  std::atomic<int64_t> project_calls{0};        ///< Project operator invocations
  std::atomic<int64_t> union_calls{0};          ///< Union operator invocations
  std::atomic<int64_t> select_calls{0};         ///< SelectEq operator invocations
  std::atomic<int64_t> partition_calls{0};      ///< PartitionByDegree invocations
  std::atomic<int64_t> sort_order_hits{0};      ///< partition sort orders reused
  std::atomic<int64_t> sort_calls{0};           ///< wide-key row sorts executed
  std::atomic<int64_t> sort_rows{0};            ///< rows through the sort layer
  std::atomic<int64_t> sort_parallel{0};        ///< ...sorts run pool-parallel
  std::atomic<int64_t> sort_ns{0};              ///< wall ns inside the sort layer
  std::atomic<int64_t> index_builds{0};         ///< context-aware index builds
  std::atomic<int64_t> index_sharded_builds{0}; ///< ...that ran sharded/parallel
  std::atomic<int64_t> index_build_rows{0};     ///< rows scanned into indexes
  std::atomic<int64_t> index_build_ns{0};       ///< wall ns inside index builds
  std::atomic<int64_t> wcoj_runs{0};            ///< generic-WCOJ executions
  std::atomic<int64_t> wcoj_parallel_runs{0};   ///< ...that fanned out on the pool
  std::atomic<int64_t> wcoj_tasks{0};           ///< top-level candidate runs fanned out
  std::atomic<int64_t> wcoj_coop_tasks{0};      ///< tasks run via shared depth-1 cursor
  std::atomic<int64_t> wcoj_steal_claims{0};    ///< depth-1 blocks claimed by dry workers
  std::atomic<int64_t> mm_products{0};          ///< matrix-kernel launches
  std::atomic<int64_t> mm_base_calls{0};        ///< packed micro-kernel products
  std::atomic<int64_t> mm_simd_calls{0};        ///< ...with a vector inner kernel
  std::atomic<int64_t> mm_bitsliced_calls{0};   ///< bit-sliced 0/1 counting products
  std::atomic<int64_t> mm_pack_ns{0};           ///< wall ns packing panels/planes
  // Planner counters (lp/ + width/; see the README "Planner" section):
  std::atomic<int64_t> lp_solves{0};            ///< simplex solves (double+exact)
  std::atomic<int64_t> lp_warm_starts{0};       ///< ...that replayed a prior basis
  std::atomic<int64_t> lp_pivots{0};            ///< total simplex pivots
  std::atomic<int64_t> width_cache_hits{0};     ///< WidthCache lookups served
  std::atomic<int64_t> plan_ns{0};              ///< wall ns inside width planning
  // Memory accounting (maintained by QueryGuard::ChargeMem/ReleaseMem;
  // charged at the data plane's large transient allocations — packed sort
  // records, trie buffers, flat-index slot arrays, MM pads/panels):
  std::atomic<int64_t> mem_current_bytes{0};    ///< tracked live allocation bytes
  std::atomic<int64_t> mem_peak_bytes{0};       ///< high-water mark of the above
  // Recovery & admission counters (core/recovery.h + core/admission.h):
  std::atomic<int64_t> admitted{0};             ///< queries admitted to a slot
  std::atomic<int64_t> queued_ns{0};            ///< wall ns queued for admission
  std::atomic<int64_t> shed{0};                 ///< queries shed with kRejected
  std::atomic<int64_t> retries{0};              ///< retryable aborts absorbed
  std::atomic<int64_t> degraded_runs{0};        ///< attempts below the top rung
  // Catalog & snapshot counters (core/database.h):
  std::atomic<int64_t> commits{0};              ///< catalog transactions committed
  std::atomic<int64_t> rollbacks{0};            ///< transactions rolled back
  std::atomic<int64_t> snapshots_pinned{0};     ///< catalog snapshots handed out
  std::atomic<int64_t> versions_retired{0};     ///< relation versions superseded
  std::atomic<int64_t> width_cache_evictions{0};///< WidthCache LRU evictions

  void Reset();
  /// Human-readable counter dump (one `name : value` line per counter).
  std::string ToString() const;
};

/// Relaxed add on a stats counter.
// relaxed: stats-only — counters are monotone sums read for reporting
// after the pool fan-in (which orders them); no control flow or data
// publication depends on their ordering mid-flight.
inline void Bump(std::atomic<int64_t>& counter, int64_t delta = 1) {
  counter.fetch_add(delta, std::memory_order_relaxed);
}

/// Stable tag identifying *which plane* a poll point sits in. Every
/// Poll() call site names its plane, which gives the fault harness a
/// deterministic per-site ordinal stream: the k-th mm poll of a run is
/// the k-th mm poll at every thread count, because per-site ordinals are
/// handed out by an atomic fetch_add (exactly one worker observes each
/// ordinal, regardless of interleaving). The `fault-site-coverage` lint
/// in tools/check_contracts.py keeps every tag wired to at least one
/// live call site.
enum class FaultSite {
  kWcoj = 0,  ///< generic-WCOJ task claims and depth-1 coop blocks
  kSort,      ///< radix sort passes and scatter chunks (util/radix)
  kIndex,     ///< sharded flat-index build chunks (relation/flat_index)
  kMm,        ///< MM slabs, Strassen recursions, bit-plane rows (mm/)
  kLp,        ///< simplex pivots and width-search steps (lp/ + width/)
  kPanda,     ///< PANDA proof-sequence steps (panda/)
  kOps,       ///< relational operators + TD/elimination glue loops
};
inline constexpr int kNumFaultSites = 7;

/// Lower-case tag name used by the FMMSW_FAULT_PLAN grammar, logs, and
/// the fault-site-coverage lint.
const char* FaultSiteName(FaultSite site);

/// A deterministic per-site fault schedule. For each site, at most one
/// rule of each kind:
///   - `at[s]  = n` (n > 0): every poll of site `s` with per-site
///     ordinal >= n throws — sticky, like a real resource violation, so
///     all workers of a fan-out abort promptly once one trips.
///   - `every[s] = k` (k > 0): polls whose per-site ordinal is a
///     multiple of k throw — a repeating schedule that survives
///     re-arms, for soaking retry loops.
/// Injected aborts carry ExecStatus::kMemoryLimitExceeded so they are
/// *retryable*: the recovery plane (core/recovery.h) treats them as
/// genuine memory pressure and walks its degradation ladder, which is
/// exactly the path CI soaks site-by-site.
struct FaultPlan {
  int64_t at[kNumFaultSites] = {0, 0, 0, 0, 0, 0, 0};
  int64_t every[kNumFaultSites] = {0, 0, 0, 0, 0, 0, 0};

  bool empty() const {
    for (int s = 0; s < kNumFaultSites; ++s) {
      if (at[s] > 0 || every[s] > 0) return false;
    }
    return true;
  }
};

/// Parses the FMMSW_FAULT_PLAN grammar: `;`-separated clauses, each
/// `<site>:<n>` (fire at per-site poll n and after) or
/// `<site>:every-<k>` (fire at every k-th per-site poll), where <site>
/// is a FaultSiteName. Example: "wcoj:7;sort:every-64;lp:100".
/// Returns false (with a diagnostic in *error) on an unknown site tag,
/// a non-positive count, or a malformed clause; *plan is only written
/// on success.
bool ParseFaultPlan(const std::string& spec, FaultPlan* plan,
                    std::string* error);

/// Cooperative guardrails for one query at a time on an ExecContext:
/// a cancellation token, a wall-clock deadline, a memory budget, and a
/// max-output-rows limit (see QueryLimits in exec_status.h).
///
/// The engines call Poll(site) at every morsel boundary — WCOJ task
/// claims and depth-1 coop blocks, ParallelFor chunk claims, radix sort
/// passes and scatter chunks, sharded index-build chunks, MM
/// slabs/Strassen recursions, PANDA proof steps — naming the FaultSite
/// plane the boundary belongs to. The fast path is a single relaxed
/// load of `armed_`: an unguarded query (no limits armed, no Cancel()
/// issued) pays ~1ns per poll. When armed, a violation throws
/// QueryAbort, which unwinds through the (exception-safe) engines to
/// the status-returning entry point that armed the guard (RunGuarded
/// below).
///
/// Memory accounting runs unconditionally (it feeds the
/// mem_current_bytes/mem_peak_bytes stats); the budget is only enforced
/// while armed. An armed deadline reads the steady clock at every poll —
/// polls sit at morsel boundaries (the hot enumeration loops amortize
/// them locally, e.g. every 256 value runs), so the read is off the
/// per-tuple path. Violations are sticky until Disarm(), so every
/// worker inside a fan-out aborts at its next poll once any one of
/// them trips a limit.
///
/// Fault injection has one mechanism, the site-keyed plan:
/// FMMSW_FAULT_PLAN=<grammar> (re-read at every Arm(), so unsetenv +
/// re-run is clean) or SetFaultPlan(plan) injects *retryable*
/// kMemoryLimitExceeded aborts on per-site ordinals (see FaultPlan
/// above). A programmatic plan is sticky across Arm/Disarm — it shadows
/// the environment until cleared with SetFaultPlan(FaultPlan{}) — so a
/// recovery ladder's re-armed retries stay under fault, which is the
/// point. For any-site faults keyed on the global poll ordinal, tests
/// install a poll hook instead: SetPollHook installs a callback invoked
/// with each armed poll's global ordinal (it may Cancel() or throw
/// QueryAbort itself; it must be thread-safe and must not call
/// SetPollHook reentrantly — the hook is invoked under hook_mu_).
///
/// Synchronization model (checked by clang -Wthread-safety and the
/// `relaxed-justified` lint): all guard state is either an atomic with a
/// written `// relaxed:` invariant or guarded by hook_mu_. Arm/Disarm
/// are called by the single driving thread *outside* any fan-out; the
/// pool's mutex handshake (ThreadPool::Run) publishes the armed limits
/// to workers, so the limit fields themselves need no ordering. Cancel()
/// may race in from any thread: its relaxed stores are latches whose
/// only consumer is a poll that retries forever, so delayed visibility
/// delays the abort by at most one poll, never loses it.
class QueryGuard {
 public:
  explicit QueryGuard(ExecStats* stats) : stats_(stats) {}

  // ---- external control (any thread, any time) ----
  /// Requests cancellation: the running query aborts with kCancelled at
  /// its next poll. Sticky until the owning guarded execution ends.
  void Cancel() {
    // relaxed: one-way latches polled repeatedly — a worker that misses
    // this store sees it on a later poll (violations are sticky until
    // Disarm), so ordering buys nothing and the store stays wait-free.
    cancelled_.store(true, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }
  bool cancelled() const {
    // relaxed: advisory read-back of the latch above.
    return cancelled_.load(std::memory_order_relaxed);
  }

  // ---- arm/disarm (done by RunGuarded around one execution) ----
  void Arm(const QueryLimits& limits);
  void Disarm();

  // ---- poll points ----
  /// Throws QueryAbort if the query was cancelled, the deadline passed,
  /// the memory budget is exceeded, or fault injection fires. `site`
  /// names the poll point's plane for the site-keyed fault harness.
  /// No-op (one relaxed load) when nothing is armed.
  void Poll(FaultSite site) {
    // relaxed: the ~1ns disarmed fast path. Arm() happens-before the
    // fan-out that polls (pool handshake), so an armed query always sees
    // true; an async Cancel() is a latch re-polled at the next morsel.
    if (!armed_.load(std::memory_order_relaxed)) return;
    PollSlow(site);
  }

  // ---- memory accounting ----
  /// Records `bytes` of tracked allocation; throws kMemoryLimitExceeded
  /// if an armed budget is now exceeded (the charge stays recorded — the
  /// caller's MemCharge releases it during unwind).
  void ChargeMem(int64_t bytes) {
    // relaxed: accounting sums — the fetch_add is an atomic RMW so the
    // running total is exact regardless of ordering; the peak CAS loop is
    // monotone; the budget comparison tolerates momentary staleness
    // (cooperative enforcement, re-checked at every charge and poll).
    const int64_t now =
        stats_->mem_current_bytes.fetch_add(bytes,
                                            std::memory_order_relaxed) +
        bytes;
    int64_t peak = stats_->mem_peak_bytes.load(std::memory_order_relaxed);
    while (now > peak && !stats_->mem_peak_bytes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    const int64_t budget = mem_budget_.load(std::memory_order_relaxed);
    if (budget > 0 && now > budget) ThrowMemoryLimit(now, budget);
  }
  void ReleaseMem(int64_t bytes) {
    // relaxed: exact atomic RMW on the accounting sum (see ChargeMem).
    stats_->mem_current_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // ---- output-row accounting (amortized batches from emit loops) ----
  /// Adds `rows` emitted tuples; throws kCapacityExceeded once an armed
  /// max_output_rows limit is crossed. Enforcement is amortized: callers
  /// flush local counts every few thousand emits, so the abort lands
  /// within one batch of the limit.
  void CountRows(int64_t rows) {
    // relaxed: limit fields are published by Arm() before the fan-out
    // (pool handshake); the row total is an exact atomic RMW and the
    // threshold check is re-run on every batch, so a stale-by-one-batch
    // view only shifts *where* the abort lands, never whether.
    const int64_t limit = row_limit_.load(std::memory_order_relaxed);
    if (limit <= 0) return;
    const int64_t now =
        rows_.fetch_add(rows, std::memory_order_relaxed) + rows;
    if (now > limit) ThrowRowLimit(now, limit);
  }
  /// True when a max_output_rows limit is armed (emit loops skip their
  /// local batching entirely when it is not).
  bool row_limit_armed() const {
    // relaxed: published by Arm() before the fan-out (see CountRows).
    return row_limit_.load(std::memory_order_relaxed) > 0;
  }

  // ---- fault injection (tests) ----
  /// Installs a programmatic site-keyed fault plan. Sticky across
  /// Arm/Disarm (so re-armed recovery retries stay under fault) and
  /// shadows FMMSW_FAULT_PLAN until cleared by passing an empty plan.
  /// Call from the driving thread between guarded executions only.
  void SetFaultPlan(const FaultPlan& plan);
  void SetPollHook(std::function<void(int64_t)> hook) FMMSW_EXCLUDES(hook_mu_);

  /// Armed polls observed since the last Arm().
  // relaxed: monotone test/diagnostic counter, read after the run.
  int64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  /// Armed polls of one site observed since the last Arm().
  int64_t site_polls(FaultSite site) const {
    // relaxed: monotone test/diagnostic counter, read after the run.
    return site_polls_[static_cast<int>(site)].load(
        std::memory_order_relaxed);
  }

 private:
  void PollSlow(FaultSite site) FMMSW_EXCLUDES(hook_mu_);
  [[noreturn]] void ThrowMemoryLimit(int64_t now, int64_t budget);
  [[noreturn]] void ThrowRowLimit(int64_t now, int64_t limit);
  [[noreturn]] void ThrowPlanFault(FaultSite site, int64_t ordinal);

  ExecStats* stats_;
  /// True iff any poll must take the slow path (limit armed, Cancel()
  /// issued, fault injection or hook installed).
  std::atomic<bool> armed_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};  ///< steady-clock ns; 0 = none
  std::atomic<int64_t> mem_budget_{0};   ///< bytes; 0 = none
  std::atomic<int64_t> row_limit_{0};    ///< rows; 0 = none
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> polls_{0};
  // Site-keyed fault plane. plan_at_/plan_every_ hold the active plan's
  // rules (0 = none); site_polls_ are the per-site ordinal streams,
  // reset at every Arm(). plan_set_ marks a sticky programmatic plan
  // (SetFaultPlan); otherwise Arm() re-reads FMMSW_FAULT_PLAN.
  std::atomic<int64_t> plan_at_[kNumFaultSites] = {};
  std::atomic<int64_t> plan_every_[kNumFaultSites] = {};
  std::atomic<int64_t> site_polls_[kNumFaultSites] = {};
  /// Fast gate: true iff any plan rule is active this arm.
  std::atomic<bool> has_plan_{false};
  /// True while a programmatic plan (SetFaultPlan) shadows the env.
  std::atomic<bool> plan_set_{false};
  /// Fast-path gate for hook_ below: polls skip the mutex entirely when
  /// no hook is installed (the production case).
  std::atomic<bool> has_hook_{false};
  /// Protects hook_ (a std::function is not atomically assignable; the
  /// mutex makes SetPollHook safe against concurrent armed polls).
  Mutex hook_mu_;
  std::function<void(int64_t)> hook_ FMMSW_GUARDED_BY(hook_mu_);
};

/// Reusable per-worker scratch buffers. Callers resize/clear as needed;
/// capacity persists across calls, which is the whole point. Exclusive
/// use is enforced by TryAcquire: operators that may be reached from
/// inside parallel regions attempt the acquire and fall back to local
/// buffers when the arena is already held by another caller.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(ScratchArena&& other) noexcept
      : u32_(std::move(other.u32_)),
        u64_(std::move(other.u64_)),
        u64b_(std::move(other.u64b_)),
        keyed_(std::move(other.keyed_)),
        keyedb_(std::move(other.keyedb_)) {
    // A held arena must never be relocated: the holder's reference would
    // dangle and the fresh busy_ flag would hand the buffers to a second
    // caller.
    // relaxed: debug assertion on a context with no legitimate
    // concurrent holder; a racing acquire is itself the bug being
    // flagged.
    FMMSW_DCHECK(!other.busy_.load(std::memory_order_relaxed) &&
                 "moving a ScratchArena that is still acquired");
  }

  /// Atomically claims the arena; returns false if another caller holds
  /// it (use local buffers instead). The winning CAS (seq_cst, hence
  /// acquire) pairs with Release()'s release store: the new holder
  /// observes every buffer write the previous holder made.
  bool TryAcquire() {
    bool expected = false;
    return busy_.compare_exchange_strong(expected, true);
  }
  void Release() { busy_.store(false, std::memory_order_release); }

  std::vector<uint32_t>& u32() { return u32_; }
  std::vector<uint64_t>& u64() { return u64_; }
  /// Second 64-bit buffer, e.g. the ping-pong half of a radix sort.
  std::vector<uint64_t>& u64b() { return u64b_; }
  std::vector<std::pair<uint64_t, uint32_t>>& keyed() { return keyed_; }
  std::vector<std::pair<uint64_t, uint32_t>>& keyedb() { return keyedb_; }

 private:
  std::atomic<bool> busy_{false};
  std::vector<uint32_t> u32_;
  std::vector<uint64_t> u64_;
  std::vector<uint64_t> u64b_;
  std::vector<std::pair<uint64_t, uint32_t>> keyed_;
  std::vector<std::pair<uint64_t, uint32_t>> keyedb_;
};

class ExecContext {
 public:
  /// Shares the process-wide pool (sized by FMMSW_THREADS).
  ExecContext();
  /// Owns a private pool with exactly `threads` workers. Lets tests and
  /// embedders pick a parallelism level without touching the environment.
  explicit ExecContext(int threads);
  ~ExecContext();
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  ThreadPool& pool() const { return *pool_; }
  int threads() const { return pool_->threads(); }
  ExecStats& stats() const { return stats_; }
  /// Guardrails for the query currently driven on this context (poll
  /// points, cancellation, limits, memory accounting). One guarded
  /// execution at a time per context; see RunGuarded below.
  QueryGuard& guard() const { return guard_; }
  /// Scratch arena of worker `worker` (0 = the calling thread outside
  /// parallel regions).
  ScratchArena& scratch(int worker = 0) { return scratch_[worker]; }

  // ---- Partition sort-order cache -------------------------------------
  // PartitionByDegree sorts its input once per (relation, X, Y). Within a
  // SortOrderScope (opened by e.g. the PANDA proof-sequence executor,
  // whose tables stay alive in its TableMap for the whole execution),
  // repeated partitions of the same stored table reuse the cached order
  // instead of re-sorting. The cache is keyed on the table's buffer
  // address + row count + column masks, so it is only safe while the
  // tables it refers to are pinned — hence the explicit scope, which
  // clears the cache on entry and exit.

  /// RAII activation of the sort-order cache (nestable).
  class SortOrderScope {
   public:
    explicit SortOrderScope(ExecContext& ec);
    ~SortOrderScope();
    SortOrderScope(const SortOrderScope&) = delete;
    SortOrderScope& operator=(const SortOrderScope&) = delete;

   private:
    ExecContext& ec_;
  };

  bool sort_cache_active() const { return sort_cache_depth_ > 0; }
  /// Cached row order for (data, rows, xmask, ymask), or nullptr.
  const std::vector<uint32_t>* FindSortOrder(const void* data, size_t rows,
                                             uint32_t xmask,
                                             uint32_t ymask) const;
  /// Stores a copy of `order` under the key (no-op outside a scope).
  void StoreSortOrder(const void* data, size_t rows, uint32_t xmask,
                      uint32_t ymask, const std::vector<uint32_t>& order);

  /// The process-default context (global pool, shared stats).
  static ExecContext& Default();
  static ExecContext& Resolve(ExecContext* ctx) {
    return ctx != nullptr ? *ctx : Default();
  }

 private:
  struct SortOrderEntry {
    const void* data;
    size_t rows;
    uint32_t xmask, ymask;
    std::vector<uint32_t> order;
  };

  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  mutable ExecStats stats_;
  mutable QueryGuard guard_{&stats_};
  std::vector<ScratchArena> scratch_;
  int sort_cache_depth_ = 0;
  std::vector<SortOrderEntry> sort_orders_;
};

/// RAII lease of the first free worker arena on a context, or unbound
/// when every arena is held (callers fall back to local buffers). The
/// destructor releases during normal return *and* exception unwinding —
/// the raw TryAcquire/Release pattern would leave the arena busy forever
/// if a QueryAbort unwound between the two calls.
class ArenaLease {
 public:
  ArenaLease() = default;
  explicit ArenaLease(ExecContext& ec) {
    for (int w = 0; w < ec.threads(); ++w) {
      if (ec.scratch(w).TryAcquire()) {
        arena_ = &ec.scratch(w);
        break;
      }
    }
  }
  /// Leases exactly `arena` if it is free.
  explicit ArenaLease(ScratchArena& arena) {
    if (arena.TryAcquire()) arena_ = &arena;
  }
  ArenaLease(ArenaLease&& other) noexcept : arena_(other.arena_) {
    other.arena_ = nullptr;
  }
  ArenaLease& operator=(ArenaLease&& other) noexcept {
    if (this != &other) {
      if (arena_ != nullptr) arena_->Release();
      arena_ = other.arena_;
      other.arena_ = nullptr;
    }
    return *this;
  }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;
  ~ArenaLease() {
    if (arena_ != nullptr) arena_->Release();
  }

  /// The leased arena, or nullptr when unbound.
  ScratchArena* get() const { return arena_; }
  explicit operator bool() const { return arena_ != nullptr; }

 private:
  ScratchArena* arena_ = nullptr;
};

/// RAII memory charge against a context's guard: Add() records bytes
/// (and may throw kMemoryLimitExceeded once an armed budget is
/// exceeded); the destructor releases everything recorded so far, so an
/// unwinding QueryAbort leaves mem_current_bytes balanced. Default
/// construction is unbound (no-op), letting call sites charge only when
/// a context is available.
class MemCharge {
 public:
  MemCharge() = default;
  MemCharge(ExecContext& ec, int64_t bytes) : guard_(&ec.guard()) {
    try {
      Add(bytes);
    } catch (...) {
      // A throwing constructor never runs the destructor: release the
      // bytes ChargeMem already recorded or they outlive the unwind and
      // shrink every later query's budget on this context.
      if (bytes_ != 0) guard_->ReleaseMem(bytes_);
      throw;
    }
  }
  explicit MemCharge(ExecContext& ec) : guard_(&ec.guard()) {}
  MemCharge(MemCharge&& other) noexcept
      : guard_(other.guard_), bytes_(other.bytes_) {
    other.guard_ = nullptr;
    other.bytes_ = 0;
  }
  MemCharge& operator=(MemCharge&&) = delete;
  MemCharge(const MemCharge&) = delete;
  MemCharge& operator=(const MemCharge&) = delete;
  ~MemCharge() {
    if (guard_ != nullptr && bytes_ != 0) guard_->ReleaseMem(bytes_);
  }

  /// Charges `more` bytes. The local total is bumped before the guard
  /// call, so when ChargeMem throws over-budget the destructor still
  /// releases the full recorded amount.
  void Add(int64_t more) {
    if (guard_ == nullptr || more <= 0) return;
    bytes_ += more;
    guard_->ChargeMem(more);
  }
  int64_t bytes() const { return bytes_; }

 private:
  QueryGuard* guard_ = nullptr;
  int64_t bytes_ = 0;
};

/// Runs `fn` with `limits` armed on `ec`'s guard and converts a
/// QueryAbort (or std::bad_alloc) unwinding out of it into an
/// ExecResult. The guard is disarmed on every path — cancellation,
/// fault injection, and partial row/poll counts never leak into the
/// next query, so a failed ExecContext is immediately reusable (arenas
/// are released by RAII during the unwind; stats are preserved).
template <typename Fn>
ExecResult RunGuarded(ExecContext& ec, const QueryLimits& limits, Fn&& fn) {
  struct ArmScope {
    QueryGuard& g;
    ~ArmScope() { g.Disarm(); }
  } scope{ec.guard()};
  ec.guard().Arm(limits);
  ExecResult result;
  try {
    fn();
  } catch (const QueryAbort& e) {
    result.status = e.status();
    result.message = e.what();
  } catch (const std::bad_alloc&) {
    result.status = ExecStatus::kMemoryLimitExceeded;
    result.message = "allocation failed (std::bad_alloc)";
  }
  return result;
}

/// ParallelFor over a context's pool that polls the context's guard at
/// every chunk claim — the standard morsel boundary for data-parallel
/// loops (MM row slabs, rectangular block grids, bit-plane rows).
/// `site` tags the polls for the site-keyed fault harness (callers pass
/// the plane the loop body belongs to, e.g. FaultSite::kMm).
inline void ParallelFor(ExecContext& ec, FaultSite site, int64_t n,
                        const std::function<void(int64_t, int64_t)>& chunk,
                        int64_t grain = 1) {
  QueryGuard& g = ec.guard();
  ParallelFor(
      ec.pool(), n,
      [&g, site, &chunk](int64_t begin, int64_t end) {
        g.Poll(site);
        chunk(begin, end);
      },
      grain);
}

}  // namespace fmmsw

#endif  // FMMSW_CORE_EXEC_CONTEXT_H_
