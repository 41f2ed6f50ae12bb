#include "core/exec_context.h"

#include <chrono>
#include <cstdlib>

namespace fmmsw {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Site tags in FaultSite enum order (keep in sync — FaultSiteName and
/// the FMMSW_FAULT_PLAN parser both index by enum value).
const char* const kFaultSiteNames[kNumFaultSites] = {
    "wcoj", "sort", "index", "mm", "lp", "panda", "ops",
};

}  // namespace

const char* FaultSiteName(FaultSite site) {
  const int s = static_cast<int>(site);
  FMMSW_DCHECK(s >= 0 && s < kNumFaultSites);
  return kFaultSiteNames[s];
}

bool ParseFaultPlan(const std::string& spec, FaultPlan* plan,
                    std::string* error) {
  FaultPlan out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;  // tolerate empty clauses / trailing ';'
    const size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      if (error != nullptr) {
        *error = "fault-plan clause '" + clause + "' has no ':'";
      }
      return false;
    }
    const std::string tag = clause.substr(0, colon);
    std::string count = clause.substr(colon + 1);
    int site = -1;
    for (int s = 0; s < kNumFaultSites; ++s) {
      if (tag == kFaultSiteNames[s]) {
        site = s;
        break;
      }
    }
    if (site < 0) {
      if (error != nullptr) {
        *error = "fault-plan clause '" + clause + "' names unknown site '" +
                 tag + "'";
      }
      return false;
    }
    const bool repeating = count.rfind("every-", 0) == 0;
    if (repeating) count = count.substr(6);
    // Hostile-input hardening: the digits-only check rejects embedded
    // NULs and junk; the length cap rejects overflow ordinals before
    // any conversion runs (atoll/strtoll overflow would be UB /
    // saturation, and a count that large is certainly a typo).
    constexpr size_t kMaxCountDigits = 18;  // < digits10(int64_t)
    long long n = 0;
    if (count.empty() || count.size() > kMaxCountDigits ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      if (error != nullptr) {
        *error = "fault-plan clause '" + clause +
                 "' needs a positive integer count";
      }
      return false;
    }
    for (char c : count) n = n * 10 + (c - '0');
    if (n <= 0) {
      if (error != nullptr) {
        *error = "fault-plan clause '" + clause +
                 "' needs a positive integer count";
      }
      return false;
    }
    (repeating ? out.every : out.at)[site] = n;
  }
  *plan = out;
  return true;
}

void QueryGuard::SetFaultPlan(const FaultPlan& plan) {
  // relaxed: driving-thread stores between guarded executions; the next
  // Arm()'s pool handshake publishes them to workers (same argument as
  // Arm below).
  for (int s = 0; s < kNumFaultSites; ++s) {
    plan_at_[s].store(plan.at[s], std::memory_order_relaxed);
    plan_every_[s].store(plan.every[s], std::memory_order_relaxed);
  }
  const bool active = !plan.empty();
  plan_set_.store(active, std::memory_order_relaxed);
  has_plan_.store(active, std::memory_order_relaxed);
  if (active) armed_.store(true, std::memory_order_relaxed);
}

void QueryGuard::Arm(const QueryLimits& limits) {
  // relaxed: every store below runs on the single driving thread before
  // the query's fan-out; ThreadPool::Run's mutex handshake publishes
  // them to the workers that will poll them, so none needs ordering of
  // its own.
  polls_.store(0, std::memory_order_relaxed);
  rows_.store(0, std::memory_order_relaxed);
  for (int s = 0; s < kNumFaultSites; ++s) {
    site_polls_[s].store(0, std::memory_order_relaxed);
  }
  // relaxed: driving-thread stores, published by the pool handshake
  // (see the function comment above).
  mem_budget_.store(limits.memory_budget_bytes, std::memory_order_relaxed);
  row_limit_.store(limits.max_output_rows, std::memory_order_relaxed);
  deadline_ns_.store(
      limits.deadline_ms > 0 ? SteadyNowNs() + limits.deadline_ms * 1000000
                             : 0,
      std::memory_order_relaxed);
  // A programmatic plan (SetFaultPlan) is sticky and shadows the
  // environment; otherwise FMMSW_FAULT_PLAN is re-read at every Arm so
  // an unsetenv + re-run is clean. A malformed env plan is ignored (the
  // guard must not throw from Arm): tests drive the parser directly.
  // relaxed: driving-thread stores, published like the ones above.
  if (!plan_set_.load(std::memory_order_relaxed)) {
    FaultPlan plan;
    const char* env = std::getenv("FMMSW_FAULT_PLAN");
    if (env != nullptr && *env != '\0') {
      ParseFaultPlan(env, &plan, nullptr);
    }
    for (int s = 0; s < kNumFaultSites; ++s) {
      plan_at_[s].store(plan.at[s], std::memory_order_relaxed);
      plan_every_[s].store(plan.every[s], std::memory_order_relaxed);
    }
    has_plan_.store(!plan.empty(), std::memory_order_relaxed);
  }
  // Cancel() issued before Arm() sticks: it targets "the next guarded
  // execution" and trips the first poll. armed_ goes true iff any poll
  // must take the slow path.
  // relaxed: driving-thread loads/store; pre-Arm writers (Cancel,
  // SetFaultPlan, SetPollHook) install before the run they target.
  const bool armed = limits.deadline_ms > 0 ||
                     limits.memory_budget_bytes > 0 ||
                     limits.max_output_rows > 0 ||
                     has_plan_.load(std::memory_order_relaxed) ||
                     has_hook_.load(std::memory_order_relaxed) ||
                     cancelled_.load(std::memory_order_relaxed);
  armed_.store(armed, std::memory_order_relaxed);
}

void QueryGuard::Disarm() {
  // relaxed: like Arm() — every store below runs on the driving thread
  // after the fan-in, so the pool handshake already ordered it against
  // every worker. A programmatic fault plan survives Disarm by design
  // (plan_set_): recovery retries re-arm and must stay under fault.
  armed_.store(false, std::memory_order_relaxed);
  cancelled_.store(false, std::memory_order_relaxed);
  deadline_ns_.store(0, std::memory_order_relaxed);
  mem_budget_.store(0, std::memory_order_relaxed);
  row_limit_.store(0, std::memory_order_relaxed);
  // relaxed: driving-thread stores after the fan-in (see the function
  // comment above) — clears an env-sourced plan; a sticky programmatic
  // plan (plan_set_) is left armed for the next run.
  if (!plan_set_.load(std::memory_order_relaxed)) {
    for (int s = 0; s < kNumFaultSites; ++s) {
      plan_at_[s].store(0, std::memory_order_relaxed);
      plan_every_[s].store(0, std::memory_order_relaxed);
    }
    has_plan_.store(false, std::memory_order_relaxed);
  }
}

void QueryGuard::SetPollHook(std::function<void(int64_t)> hook) {
  MutexLock lock(&hook_mu_);
  hook_ = std::move(hook);
  // relaxed: gate only — PollSlow re-checks under hook_mu_ before
  // invoking, so a stale read merely skips or takes the mutex once.
  has_hook_.store(static_cast<bool>(hook_), std::memory_order_relaxed);
}

void QueryGuard::PollSlow(FaultSite site) {
  // relaxed: poll ordinals are exact atomic RMWs (each ordinal is
  // observed by exactly one worker, which is what makes the fault plan
  // deterministic across thread counts); fault/limit loads are
  // published by Arm() before the fan-out (see Arm above) and latches
  // like cancelled_ are re-polled every morsel, so delayed visibility
  // delays an abort by one poll at most.
  const int64_t poll = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
  // relaxed: per-site ordinal RMWs are exact; the plan gate and rules
  // are published by Arm/SetFaultPlan before the fan-out (see the block
  // comment above).
  if (has_plan_.load(std::memory_order_relaxed)) {
    const int s = static_cast<int>(site);
    const int64_t ordinal =
        site_polls_[s].fetch_add(1, std::memory_order_relaxed) + 1;
    const int64_t at = plan_at_[s].load(std::memory_order_relaxed);
    if (at > 0 && ordinal >= at) ThrowPlanFault(site, ordinal);
    const int64_t every = plan_every_[s].load(std::memory_order_relaxed);
    if (every > 0 && ordinal % every == 0) ThrowPlanFault(site, ordinal);
  } else {
    // relaxed: diagnostic per-site ordinal (site_polls accessor).
    site_polls_[static_cast<int>(site)].fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  if (has_hook_.load(std::memory_order_relaxed)) {
    // Invoked under hook_mu_: a concurrent SetPollHook can never destroy
    // the std::function mid-call. Hooks are test instruments; the lock
    // is off the production path (has_hook_ false) entirely.
    MutexLock lock(&hook_mu_);
    if (hook_) hook_(poll);
  }
  // relaxed: latches and limits below — published by Arm() before the
  // fan-out; staleness delays the abort by one poll at most.
  if (cancelled_.load(std::memory_order_relaxed)) {
    throw QueryAbort(ExecStatus::kCancelled, "query cancelled");
  }
  const int64_t budget = mem_budget_.load(std::memory_order_relaxed);
  if (budget > 0) {
    const int64_t now =
        stats_->mem_current_bytes.load(std::memory_order_relaxed);
    if (now > budget) ThrowMemoryLimit(now, budget);
  }
  const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline > 0 && SteadyNowNs() > deadline) {
    throw QueryAbort(ExecStatus::kDeadlineExceeded,
                     "wall-clock deadline exceeded");
  }
}

void QueryGuard::ThrowMemoryLimit(int64_t now, int64_t budget) {
  throw QueryAbort(ExecStatus::kMemoryLimitExceeded,
                   "memory budget exceeded: " + std::to_string(now) +
                       " bytes tracked > " + std::to_string(budget) +
                       " byte budget");
}

void QueryGuard::ThrowRowLimit(int64_t now, int64_t limit) {
  throw QueryAbort(ExecStatus::kCapacityExceeded,
                   "max_output_rows exceeded: " + std::to_string(now) +
                       " rows emitted > limit " + std::to_string(limit));
}

void QueryGuard::ThrowPlanFault(FaultSite site, int64_t ordinal) {
  // kMemoryLimitExceeded, not kCancelled: plan faults simulate resource
  // pressure so the recovery ladder treats them as retryable.
  throw QueryAbort(ExecStatus::kMemoryLimitExceeded,
                   std::string("fault plan fired at site ") +
                       FaultSiteName(site) + " poll #" +
                       std::to_string(ordinal) +
                       " (simulated memory pressure)");
}

void ExecStats::Reset() {
  join_calls = 0;
  join_output_tuples = 0;
  fused_joins = 0;
  fused_probe_tuples = 0;
  fused_drop_tuples = 0;
  fused_emit_tuples = 0;
  semijoin_calls = 0;
  semijoin_all_calls = 0;
  antijoin_calls = 0;
  project_calls = 0;
  union_calls = 0;
  select_calls = 0;
  partition_calls = 0;
  sort_order_hits = 0;
  sort_calls = 0;
  sort_rows = 0;
  sort_parallel = 0;
  sort_ns = 0;
  index_builds = 0;
  index_sharded_builds = 0;
  index_build_rows = 0;
  index_build_ns = 0;
  wcoj_runs = 0;
  wcoj_parallel_runs = 0;
  wcoj_tasks = 0;
  wcoj_coop_tasks = 0;
  wcoj_steal_claims = 0;
  mm_products = 0;
  mm_base_calls = 0;
  mm_simd_calls = 0;
  mm_bitsliced_calls = 0;
  mm_pack_ns = 0;
  lp_solves = 0;
  lp_warm_starts = 0;
  lp_pivots = 0;
  width_cache_hits = 0;
  plan_ns = 0;
  mem_current_bytes = 0;
  mem_peak_bytes = 0;
  admitted = 0;
  queued_ns = 0;
  shed = 0;
  retries = 0;
  degraded_runs = 0;
  commits = 0;
  rollbacks = 0;
  snapshots_pinned = 0;
  versions_retired = 0;
  width_cache_evictions = 0;
}

std::string ExecStats::ToString() const {
  std::string out;
  auto row = [&out](const char* name, const std::atomic<int64_t>& v) {
    // relaxed: reporting snapshot — read after the run (pool fan-in
    // ordered the bumps) or as an intentionally racy live dump.
    const int64_t x = v.load(std::memory_order_relaxed);
    if (x == 0) return;
    out += name;
    out += " : ";
    out += std::to_string(x);
    out += "\n";
  };
  row("join_calls          ", join_calls);
  row("join_output_tuples  ", join_output_tuples);
  row("fused_joins         ", fused_joins);
  row("fused_probe_tuples  ", fused_probe_tuples);
  row("fused_drop_tuples   ", fused_drop_tuples);
  row("fused_emit_tuples   ", fused_emit_tuples);
  row("semijoin_calls      ", semijoin_calls);
  row("semijoin_all_calls  ", semijoin_all_calls);
  row("antijoin_calls      ", antijoin_calls);
  row("project_calls       ", project_calls);
  row("union_calls         ", union_calls);
  row("select_calls        ", select_calls);
  row("partition_calls     ", partition_calls);
  row("sort_order_hits     ", sort_order_hits);
  row("sort_calls          ", sort_calls);
  row("sort_rows           ", sort_rows);
  row("sort_parallel       ", sort_parallel);
  row("sort_ns             ", sort_ns);
  row("index_builds        ", index_builds);
  row("index_sharded_builds", index_sharded_builds);
  row("index_build_rows    ", index_build_rows);
  row("index_build_ns      ", index_build_ns);
  row("wcoj_runs           ", wcoj_runs);
  row("wcoj_parallel_runs  ", wcoj_parallel_runs);
  row("wcoj_tasks          ", wcoj_tasks);
  row("wcoj_coop_tasks     ", wcoj_coop_tasks);
  row("wcoj_steal_claims   ", wcoj_steal_claims);
  row("mm_products         ", mm_products);
  row("mm_base_calls       ", mm_base_calls);
  row("mm_simd_calls       ", mm_simd_calls);
  row("mm_bitsliced_calls  ", mm_bitsliced_calls);
  row("mm_pack_ns          ", mm_pack_ns);
  row("lp_solves           ", lp_solves);
  row("lp_warm_starts      ", lp_warm_starts);
  row("lp_pivots           ", lp_pivots);
  row("width_cache_hits    ", width_cache_hits);
  row("plan_ns             ", plan_ns);
  row("mem_current_bytes   ", mem_current_bytes);
  row("mem_peak_bytes      ", mem_peak_bytes);
  row("admitted            ", admitted);
  row("queued_ns           ", queued_ns);
  row("shed                ", shed);
  row("retries             ", retries);
  row("degraded_runs       ", degraded_runs);
  row("commits             ", commits);
  row("rollbacks           ", rollbacks);
  row("snapshots_pinned    ", snapshots_pinned);
  row("versions_retired    ", versions_retired);
  row("width_cache_evictions", width_cache_evictions);
  return out;
}

ExecContext::ExecContext() : pool_(&ThreadPool::Global()) {
  scratch_.resize(pool_->threads());
}

ExecContext::ExecContext(int threads)
    : owned_pool_(new ThreadPool(threads)), pool_(owned_pool_.get()) {
  scratch_.resize(pool_->threads());
}

ExecContext::~ExecContext() = default;

ExecContext::SortOrderScope::SortOrderScope(ExecContext& ec) : ec_(ec) {
  if (ec_.sort_cache_depth_++ == 0) ec_.sort_orders_.clear();
}

ExecContext::SortOrderScope::~SortOrderScope() {
  if (--ec_.sort_cache_depth_ == 0) ec_.sort_orders_.clear();
}

const std::vector<uint32_t>* ExecContext::FindSortOrder(
    const void* data, size_t rows, uint32_t xmask, uint32_t ymask) const {
  if (sort_cache_depth_ == 0) return nullptr;
  for (const SortOrderEntry& e : sort_orders_) {
    if (e.data == data && e.rows == rows && e.xmask == xmask &&
        e.ymask == ymask) {
      return &e.order;
    }
  }
  return nullptr;
}

void ExecContext::StoreSortOrder(const void* data, size_t rows,
                                 uint32_t xmask, uint32_t ymask,
                                 const std::vector<uint32_t>& order) {
  if (sort_cache_depth_ == 0) return;
  sort_orders_.push_back(SortOrderEntry{data, rows, xmask, ymask, order});
}

ExecContext& ExecContext::Default() {
  static ExecContext ctx;
  return ctx;
}

}  // namespace fmmsw
