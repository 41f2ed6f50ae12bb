// Tests for the recovery plane (PR 9): ExecStatus exhaustiveness, the
// site-keyed deterministic fault harness (FaultPlan / FMMSW_FAULT_PLAN),
// degraded-plan retry down the strategy ladder (RunWithRecovery + the
// core/api *WithRecovery entry points), and admission control.
//
// The load-bearing contract: under injected retryable faults, a recovered
// run returns results bit-identical to a clean run of the fallback
// strategy — at every thread count — with the retries/degraded_runs
// counters proving the ladder was actually exercised.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/api.h"
#include "core/exec_context.h"
#include "core/recovery.h"
#include "engine/strategy.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "gtest/gtest.h"
#include "mm/matrix.h"
#include "relation/generators.h"
#include "util/rational.h"
#include "width/closed_forms.h"
#include "width/omega_subw.h"
#include "width/width_cache.h"

namespace fmmsw {
namespace {

constexpr ExecStatus kAllStatuses[] = {
    ExecStatus::kOk,
    ExecStatus::kCancelled,
    ExecStatus::kDeadlineExceeded,
    ExecStatus::kMemoryLimitExceeded,
    ExecStatus::kCapacityExceeded,
    ExecStatus::kInvalidArgument,
    ExecStatus::kRejected,
    ExecStatus::kRetryExhausted,
};

QueryInput TriangleWorkload(uint64_t seed) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kUniform;
  opts.tuples_per_relation = 4000;
  opts.domain = 90;
  opts.seed = seed;
  opts.plant_witness = true;
  return MakeWorkload(Hypergraph::Triangle(), opts);
}

FaultPlan MustParse(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(spec, &plan, &error)) << error;
  return plan;
}

// -------------------------------------------------- status taxonomy --

TEST(StatusTest, StatusStringRoundTripCoversEveryValue) {
  // The switch in StatusString is total (no default) so a new enum value
  // fails -Wswitch at compile time; this test pins the name set and its
  // injectivity, so logs/bench JSON stay unambiguous.
  std::set<std::string> names;
  for (ExecStatus s : kAllStatuses) {
    const std::string name = StatusString(s);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << "unnamed status";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), std::size(kAllStatuses));
  EXPECT_STREQ(StatusString(ExecStatus::kRejected), "rejected");
  EXPECT_STREQ(StatusString(ExecStatus::kRetryExhausted), "retry_exhausted");
}

TEST(StatusTest, RetryableClassification) {
  for (ExecStatus s : kAllStatuses) {
    const bool retryable = s == ExecStatus::kMemoryLimitExceeded ||
                           s == ExecStatus::kCapacityExceeded;
    EXPECT_EQ(IsRetryable(s), retryable) << StatusString(s);
  }
}

// ------------------------------------------------ fault-plan grammar --

TEST(FaultPlanTest, ParseGrammar) {
  FaultPlan plan = MustParse("wcoj:7;sort:every-64;lp:100");
  EXPECT_EQ(plan.at[static_cast<int>(FaultSite::kWcoj)], 7);
  EXPECT_EQ(plan.every[static_cast<int>(FaultSite::kSort)], 64);
  EXPECT_EQ(plan.at[static_cast<int>(FaultSite::kLp)], 100);
  EXPECT_EQ(plan.at[static_cast<int>(FaultSite::kMm)], 0);
  EXPECT_FALSE(plan.empty());

  // Empty spec and stray separators are fine.
  EXPECT_TRUE(MustParse("").empty());
  EXPECT_EQ(MustParse("mm:3;").at[static_cast<int>(FaultSite::kMm)], 3);

  // Every registered site name parses.
  for (int s = 0; s < kNumFaultSites; ++s) {
    const std::string spec = std::string(FaultSiteName(
                                 static_cast<FaultSite>(s))) + ":5";
    EXPECT_EQ(MustParse(spec).at[s], 5) << spec;
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("bogus:3", &plan, &error));
  EXPECT_NE(error.find("unknown site"), std::string::npos);
  EXPECT_FALSE(ParseFaultPlan("mm", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:0", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:-3", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:every-", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("mm:every-x", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("sort:3x", &plan, &error));
}

TEST(FaultPlanTest, PlanFaultIsRetryableAndSiteKeyed) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(91);
  ExecContext ec(2);
  ec.guard().SetFaultPlan(MustParse("mm:1"));
  // An MM-plane fault aborts the MM engine with retryable status...
  int64_t count = -1;
  const ExecResult mm = RunGuarded(ec, {}, [&] {
    count = TriangleCountMm(db, MmKernel::kNaive, &ec);
  });
  EXPECT_EQ(mm.status, ExecStatus::kMemoryLimitExceeded);
  EXPECT_NE(mm.message.find("fault plan fired at site mm"),
            std::string::npos);
  EXPECT_EQ(count, -1) << "aborted rung must not publish a result";
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  // ...while a strategy that never enters the MM plane is untouched.
  const ExecResult wcoj = RunGuarded(ec, {}, [&] {
    count = WcojCount(h, db, &ec);
  });
  ASSERT_TRUE(wcoj.ok()) << wcoj.message;
  ec.guard().SetFaultPlan(FaultPlan{});
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
}

// ----------------------------------------------- degraded-plan retry --

TEST(RecoveryTest, LadderFallsBackUnderMmPressureAtEveryThreadCount) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(101);
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  ASSERT_GT(clean_count, 0);
  for (int threads : {1, 2, 4, 8}) {
    ExecContext ec(threads);
    ec.guard().SetFaultPlan(MustParse("mm:1"));
    int64_t count = -1;
    RecoveryReport report;
    const ExecResult r =
        EvaluateCountWithRecovery(h, db, &count, &ec, {}, {}, &report);
    ASSERT_TRUE(r.ok()) << r.message;
    // Bit-identical to a clean run of the fallback strategy.
    EXPECT_EQ(count, clean_count) << "threads=" << threads;
    EXPECT_EQ(report.winning_rung, "wcoj");
    // The MM rung (bit-sliced) failed retryably.
    EXPECT_EQ(report.attempts, 2);
    EXPECT_EQ(report.degraded_runs, 1);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].status, ExecStatus::kMemoryLimitExceeded);
    EXPECT_EQ(ec.stats().retries.load(), 1);
    EXPECT_EQ(ec.stats().degraded_runs.load(), 1);
    EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
    // The plan is sticky until cleared: a clean rerun works afterwards.
    ec.guard().SetFaultPlan(FaultPlan{});
    int64_t again = -1;
    ASSERT_TRUE(EvaluateCountWithRecovery(h, db, &again, &ec).ok());
    EXPECT_EQ(again, clean_count);
  }
}

TEST(RecoveryTest, BooleanLadderRecoversAndMatches) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(103);
  ExecContext ref_ec(1);
  const bool clean = WcojBoolean(h, db, &ref_ec);
  for (int threads : {1, 4}) {
    ExecContext ec(threads);
    // An "mm" fault alone cannot reliably kill the Boolean hybrids: their
    // light-corner joins may answer before any matrix work (that clean
    // early exit under an irrelevant plan is covered by the per-site
    // soak). The degree-split phase, however, always runs through the
    // relational-ops plane — which the WCOJ rung never polls — so an
    // "ops" fault deterministically fails the hybrid rung.
    ec.guard().SetFaultPlan(MustParse("ops:1"));
    bool result = !clean;
    RecoveryReport report;
    const ExecResult r =
        EvaluateBooleanWithRecovery(h, db, &result, &ec, {}, {}, &report);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(result, clean);
    EXPECT_EQ(report.winning_rung, "wcoj");
    EXPECT_EQ(report.attempts, 2);
    EXPECT_EQ(report.degraded_runs, 1);
    ec.guard().SetFaultPlan(FaultPlan{});
  }
}

TEST(RecoveryTest, TerminalStatusIsNotRetried) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(105);
  ExecContext ec(2);
  ec.guard().Cancel();
  int64_t count = -1;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, {}, {}, &report);
  EXPECT_EQ(r.status, ExecStatus::kCancelled);
  EXPECT_NE(r.message.find("rung 'mm-bitsliced'"), std::string::npos);
  EXPECT_EQ(report.attempts, 1) << "terminal failures must not retry";
  EXPECT_EQ(count, -1);
  EXPECT_EQ(ec.stats().retries.load(), 0);
  // The context is immediately reusable.
  ASSERT_TRUE(EvaluateCountWithRecovery(h, db, &count, &ec).ok());
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
}

TEST(RecoveryTest, RetryExhaustedWhenEveryRungFaults) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(107);
  ExecContext ec(4);
  // Kill every plane: no rung can survive.
  ec.guard().SetFaultPlan(
      MustParse("wcoj:1;sort:1;index:1;mm:1;lp:1;panda:1;ops:1"));
  int64_t count = -42;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, {}, {}, &report);
  EXPECT_EQ(r.status, ExecStatus::kRetryExhausted);
  EXPECT_EQ(count, -42) << "no rung succeeded, output must be untouched";
  EXPECT_EQ(report.winning_rung, "");
  EXPECT_EQ(static_cast<size_t>(report.attempts), report.failures.size());
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  ec.guard().SetFaultPlan(FaultPlan{});
}

TEST(RecoveryTest, MaxAttemptsCapsTheLadder) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(109);
  ExecContext ec(2);
  ec.guard().SetFaultPlan(MustParse("mm:1"));
  RetryPolicy policy;
  policy.max_attempts = 1;  // bit-sliced only; never reaches wcoj
  int64_t count = -1;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, {}, policy, &report);
  EXPECT_EQ(r.status, ExecStatus::kRetryExhausted);
  EXPECT_NE(r.message.find("retry budget exhausted"), std::string::npos);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(count, -1);
  ec.guard().SetFaultPlan(FaultPlan{});
}

TEST(RecoveryTest, DeadlineBudgetIsSharedAcrossAttempts) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(111);
  ExecContext ec(2);
  // min_remaining_ms above the whole deadline: the walk must refuse to
  // launch even the first attempt rather than start with too little
  // budget — proving the deadline is re-derived, not restarted.
  QueryLimits limits;
  limits.deadline_ms = 40;
  RetryPolicy policy;
  policy.min_remaining_ms = 1000;
  int64_t count = -1;
  RecoveryReport report;
  const ExecResult r =
      EvaluateCountWithRecovery(h, db, &count, &ec, limits, policy, &report);
  EXPECT_EQ(r.status, ExecStatus::kDeadlineExceeded);
  EXPECT_EQ(report.attempts, 0);
  EXPECT_EQ(count, -1);
  // With a sane policy the same deadline admits a full recovery walk.
  ec.guard().SetFaultPlan(MustParse("mm:1"));
  limits.deadline_ms = 60000;
  const ExecResult ok =
      EvaluateCountWithRecovery(h, db, &count, &ec, limits, {}, &report);
  ASSERT_TRUE(ok.ok()) << ok.message;
  EXPECT_EQ(report.winning_rung, "wcoj");
  ExecContext ref_ec(1);
  EXPECT_EQ(count, WcojCount(h, db, &ref_ec));
  ec.guard().SetFaultPlan(FaultPlan{});
}

TEST(RecoveryTest, EmptyLadderIsInvalidArgument) {
  ExecContext ec(1);
  const ExecResult r = RunWithRecovery(ec, {}, {}, {});
  EXPECT_EQ(r.status, ExecStatus::kInvalidArgument);
}

TEST(RecoveryTest, JoinWithRecoveryMatchesCleanJoin) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(113);
  ExecContext ref_ec(1);
  const Relation ref = WcojJoin(h, db, h.vertices(), nullptr, &ref_ec);
  ExecContext ec(4);
  Relation out;
  ASSERT_TRUE(
      EvaluateJoinWithRecovery(h, db, h.vertices(), &out, &ec).ok());
  ASSERT_EQ(out.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    for (int c = 0; c < ref.arity(); ++c) {
      ASSERT_EQ(out.Row(i)[c], ref.Row(i)[c]) << "row " << i;
    }
  }
}

// Regression: MemCharge's converting constructor used to leak its bytes
// when ChargeMem threw over-budget inside it (a throwing constructor
// never runs its destructor). The leaked charge survived the unwind and
// shrank the budget seen by every later attempt on the same context, so
// a degradation ladder could exhaust even though its cheapest rung fit
// comfortably.
TEST(RecoveryTest, BudgetAbortLeavesMemoryChargesBalanced) {
  ExecContext ec(2);
  // An 800x800 int64 output is ~5.1 MB: MultiplyBlocked's output charge
  // trips the 4 MiB budget inside the MemCharge constructor itself.
  const Matrix a(800, 800);
  const Matrix b(800, 800);
  QueryLimits tight;
  tight.memory_budget_bytes = 4 << 20;
  const ExecResult aborted = RunGuarded(ec, tight, [&] {
    const Matrix c = MultiplyBlocked(a, b, &ec);
    (void)c;
  });
  ASSERT_EQ(aborted.status, ExecStatus::kMemoryLimitExceeded);
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0)
      << "budget abort leaked tracked memory charges";
  // The same context, under the same budget, must immediately admit a
  // product that fits (a 300x300 output is ~0.7 MB).
  const Matrix small_a(300, 300);
  const Matrix small_b(300, 300);
  const ExecResult ok = RunGuarded(ec, tight, [&] {
    const Matrix c = MultiplyBlocked(small_a, small_b, &ec);
    (void)c;
  });
  EXPECT_TRUE(ok.ok()) << ok.message;
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
}

// ------------------------------------------------- per-site soaking --

// Recovery must hold under a fault at *any* site, not just mm: sweep
// every registered tag. Sites the count ladder never polls (e.g. panda)
// simply never fire — the run then matches the clean answer trivially,
// which is itself part of the contract (a plan for an untouched plane
// must not perturb results).
TEST(FaultPlanTest, PerSiteSoakRecoversOrMatchesCleanRun) {
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(115);
  ExecContext ref_ec(1);
  const int64_t clean_count = WcojCount(h, db, &ref_ec);
  const Rational omega(5, 2);
  for (int s = 0; s < kNumFaultSites; ++s) {
    const std::string site = FaultSiteName(static_cast<FaultSite>(s));
    ExecContext ec(4);
    ec.guard().SetFaultPlan(MustParse(site + ":3"));
    // Count ladder: either some rung avoids the faulted plane and the
    // recovered answer is bit-identical to the clean run, or every rung
    // faults and the output is untouched. Which one happens depends on
    // the plan alone, never on timing.
    int64_t count = -1;
    const ExecResult r = EvaluateCountWithRecovery(h, db, &count, &ec);
    if (r.ok()) {
      EXPECT_EQ(count, clean_count) << "site " << site;
    } else {
      EXPECT_EQ(r.status, ExecStatus::kRetryExhausted)
          << "site " << site << ": " << r.message;
      EXPECT_EQ(count, -1) << "site " << site;
    }
    // Planner ladder: exercises the lp plane with a closed-form rung as
    // the fallback.
    Rational width;
    std::vector<PlanRung> ladder;
    ladder.push_back({"lp-full", [&](ExecContext& lec) {
                        OmegaSubwOptions o;
                        o.use_width_cache = false;
                        width = OmegaSubw(Hypergraph::Clique(4), omega, o,
                                          &lec).value;
                      }});
    ladder.push_back({"closed-form", [&](ExecContext&) {
                        width = closed_forms::OmegaSubwClique4(omega);
                      }});
    RecoveryReport report;
    const ExecResult rw = RunWithRecovery(ec, {}, {}, ladder, &report);
    ASSERT_TRUE(rw.ok()) << "site " << site << ": " << rw.message;
    EXPECT_EQ(width, closed_forms::OmegaSubwClique4(omega))
        << "site " << site;
    if (site == "lp") {
      EXPECT_EQ(report.winning_rung, "closed-form");
      EXPECT_GE(report.degraded_runs, 1);
    }
    ec.guard().SetFaultPlan(FaultPlan{});
  }
}

// CI soak hook: FMMSW_FAULT_PLAN is injected by the workflow (sweeping
// site tags under ASan and TSan at several thread counts); the guard
// re-reads it at every Arm. Recovered answers must match unguarded runs
// (which never arm, hence never fault).
TEST(FaultPlanTest, EnvFaultPlanSoak) {
  const char* spec = std::getenv("FMMSW_FAULT_PLAN");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set FMMSW_FAULT_PLAN to run the env soak";
  }
  const Hypergraph h = Hypergraph::Triangle();
  const QueryInput db = TriangleWorkload(117);
  const int64_t clean_count = WcojCount(h, db);
  const bool clean_bool = WcojBoolean(h, db);
  ExecContext ec;  // process pool, sized by FMMSW_THREADS
  MustParse(spec);  // the plan must at least be well-formed
  // The recovery invariant under an *arbitrary* plan: either the ladder
  // finds a rung the plan does not touch and returns the clean answer
  // bit-identically, or every rung faults and the outputs are untouched.
  // Which of the two happens is a function of the plan alone (per-site
  // ordinals are deterministic), never of timing or thread count.
  int64_t count = -1;
  bool result = !clean_bool;
  const ExecResult rc = EvaluateCountWithRecovery(h, db, &count, &ec);
  const ExecResult rb = EvaluateBooleanWithRecovery(h, db, &result, &ec);
  if (rc.ok()) {
    EXPECT_EQ(count, clean_count);
  } else {
    EXPECT_EQ(rc.status, ExecStatus::kRetryExhausted) << rc.message;
    EXPECT_EQ(count, -1) << "failed recovery leaked a partial count";
  }
  if (rb.ok()) {
    EXPECT_EQ(result, clean_bool);
  } else {
    EXPECT_EQ(rb.status, ExecStatus::kRetryExhausted) << rb.message;
    EXPECT_EQ(result, !clean_bool) << "failed recovery leaked a result";
  }
  EXPECT_EQ(ec.stats().mem_current_bytes.load(), 0);
  // Planner ladder under the same plan: full LP solve with a closed-form
  // fallback rung.
  const Rational omega(5, 2);
  Rational width;
  std::vector<PlanRung> ladder;
  ladder.push_back({"lp-full", [&](ExecContext& lec) {
                      OmegaSubwOptions o;
                      o.use_width_cache = false;
                      width = OmegaSubw(Hypergraph::Clique(4), omega, o,
                                        &lec).value;
                    }});
  ladder.push_back({"closed-form", [&](ExecContext&) {
                      width = closed_forms::OmegaSubwClique4(omega);
                    }});
  const ExecResult rw = RunWithRecovery(ec, {}, {}, ladder);
  ASSERT_TRUE(rw.ok()) << rw.message;
  EXPECT_EQ(width, closed_forms::OmegaSubwClique4(omega));
}

// ---------------------------------------------------- admission control --

TEST(AdmissionTest, HeavySlotGatesQueueTimesOutDeterministically) {
  AdmissionConfig cfg;
  cfg.heavy_slots = 1;
  cfg.max_queued = 2;
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  AdmissionController::Ticket first;
  ASSERT_TRUE(
      ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &first).ok());
  EXPECT_TRUE(first.admitted());
  EXPECT_EQ(ctrl.active(QueryClass::kHeavyAnalytic), 1);
  EXPECT_EQ(ec.stats().admitted.load(), 1);
  // A deadline-bounded waiter times out while the slot is held, leaves
  // the queue, and reports the wait in queued_ns.
  AdmissionController::Ticket blocked;
  QueryLimits limits;
  limits.deadline_ms = 30;
  const ExecResult r =
      ctrl.Admit(QueryClass::kHeavyAnalytic, limits, ec, &blocked);
  EXPECT_EQ(r.status, ExecStatus::kDeadlineExceeded);
  EXPECT_FALSE(blocked.admitted());
  EXPECT_EQ(ctrl.queued(QueryClass::kHeavyAnalytic), 0);
  EXPECT_GE(ec.stats().queued_ns.load(), 30'000'000);
  // A patient waiter is admitted the moment the slot frees.
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    AdmissionController::Ticket t;
    const ExecResult wr = ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &t);
    EXPECT_TRUE(wr.ok()) << wr.message;
    admitted.store(true);
  });
  while (ctrl.queued(QueryClass::kHeavyAnalytic) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(admitted.load());
  first = AdmissionController::Ticket();  // release the slot
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ctrl.active(QueryClass::kHeavyAnalytic), 0);
  EXPECT_EQ(ec.stats().admitted.load(), 2);
}

TEST(AdmissionTest, ShedsImmediatelyWhenQueueFull) {
  AdmissionConfig cfg;
  cfg.heavy_slots = 1;
  cfg.max_queued = 0;  // no queue at all: busy means shed
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  AdmissionController::Ticket first;
  ASSERT_TRUE(
      ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &first).ok());
  AdmissionController::Ticket second;
  const ExecResult r =
      ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &second);
  EXPECT_EQ(r.status, ExecStatus::kRejected);
  EXPECT_FALSE(second.admitted());
  EXPECT_EQ(ec.stats().shed.load(), 1);
  // Small probes are an independent class: the heavy congestion does
  // not affect them.
  AdmissionController::Ticket probe;
  EXPECT_TRUE(ctrl.Admit(QueryClass::kSmallProbe, {}, ec, &probe).ok());
}

TEST(AdmissionTest, FifoOrderIsArrivalOrder) {
  AdmissionConfig cfg;
  cfg.heavy_slots = 1;
  cfg.max_queued = 8;
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  AdmissionController::Ticket gate;
  ASSERT_TRUE(ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &gate).ok());
  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      AdmissionController::Ticket t;
      const ExecResult r =
          ctrl.Admit(QueryClass::kHeavyAnalytic, {}, ec, &t);
      EXPECT_TRUE(r.ok()) << r.message;
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
      // Ticket released at scope exit, admitting the next waiter.
    });
    // Serialize arrival order so FIFO order is fully determined.
    while (ctrl.queued(QueryClass::kHeavyAnalytic) != i + 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  gate = AdmissionController::Ticket();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ctrl.active(QueryClass::kHeavyAnalytic), 0);
  EXPECT_EQ(ctrl.queued(QueryClass::kHeavyAnalytic), 0);
  EXPECT_EQ(ec.stats().admitted.load(), 4);
}

TEST(AdmissionTest, SmallProbeSlotsRunConcurrently) {
  AdmissionConfig cfg;
  cfg.small_slots = 4;
  cfg.max_queued = 0;
  AdmissionController ctrl(cfg);
  ExecContext ec(1);
  std::vector<AdmissionController::Ticket> tickets(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        ctrl.Admit(QueryClass::kSmallProbe, {}, ec, &tickets[i]).ok())
        << i;
  }
  EXPECT_EQ(ctrl.active(QueryClass::kSmallProbe), 4);
  AdmissionController::Ticket overflow;
  EXPECT_EQ(ctrl.Admit(QueryClass::kSmallProbe, {}, ec, &overflow).status,
            ExecStatus::kRejected);
  tickets.clear();
  EXPECT_EQ(ctrl.active(QueryClass::kSmallProbe), 0);
}

// ------------------------------------------------- strategy metadata --

TEST(StrategyTest, LaddersDescendByMemoryRankAndEndInWcoj) {
  for (const auto* ladder :
       {&TriangleCountLadder(), &TriangleBooleanLadder(),
        &GenericBooleanLadder()}) {
    ASSERT_FALSE(ladder->empty());
    for (size_t i = 1; i < ladder->size(); ++i) {
      EXPECT_LT((*ladder)[i].memory_rank, (*ladder)[i - 1].memory_rank);
    }
    EXPECT_FALSE(ladder->back().uses_mm)
        << "the last rung must be the memory-lightest combinatorial plan";
  }
  EXPECT_EQ(TriangleCountLadder().back().name, "wcoj");
  EXPECT_TRUE(IsTriangleQuery(Hypergraph::Triangle()));
  EXPECT_FALSE(IsTriangleQuery(Hypergraph::Cycle(4)));
  EXPECT_FALSE(IsTriangleQuery(Hypergraph::Clique(4)));
}

}  // namespace
}  // namespace fmmsw
