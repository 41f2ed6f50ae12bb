// Cross-module integration tests: the Section 4.1 multi-variable MM
// options executed end-to-end, width/engine consistency on the
// double-triangle query, and randomized plan-vs-plan equivalence sweeps.

#include "core/api.h"
#include "engine/elimination.h"
#include "engine/td_eval.h"
#include "engine/wcoj.h"
#include "entropy/witnesses.h"
#include "gtest/gtest.h"
#include "relation/generators.h"
#include "width/closed_forms.h"
#include "width/emm.h"
#include "width/omega_subw.h"
#include "width/subw.h"

namespace fmmsw {
namespace {

// --- Section 4.1, Option 2: eliminate Y treating (Z, Z') as one
// dimension: MM(X; ZZ'; Y) on the double-triangle query. The interpreter
// must join S(Y,Z) and S'(Y,Z') into one matrix side and produce the same
// Boolean answer as pure for-loops.
TEST(MultiVarMmTest, DoubleTriangleCombinedDimension) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    WorkloadOptions opts;
    opts.tuples_per_relation = 50;
    opts.domain = 8;
    opts.seed = seed + 1000;
    opts.plant_witness = seed % 2 == 0;
    Hypergraph h = Hypergraph::DoubleTriangle();
    QueryInput db = MakeWorkload(h, opts);

    EliminationPlan plan;
    PlanStep mm_step;
    mm_step.block = VarSet{1};  // Y
    mm_step.method = StepMethod::kMm;
    // x = {X}, y = {Z, Z'}: S and S' fuse into the (Y x ZZ') matrix.
    mm_step.mm = MmExpr{VarSet{0}, VarSet{2, 3}, VarSet{1}, VarSet::Empty()};
    plan.steps.push_back(mm_step);
    for (int v : {0, 2, 3}) {
      PlanStep s;
      s.block = VarSet::Singleton(v);
      s.method = StepMethod::kForLoop;
      plan.steps.push_back(s);
    }
    EliminationStats stats;
    EXPECT_EQ(ExecutePlan(h, db, plan, {}, &stats), WcojBoolean(h, db))
        << "seed=" << seed;
    EXPECT_EQ(stats.mm_steps, 1);
  }
}

// The alternative grouping MM(XZ; Z'; Y)... wait — Section 2.2 lists
// MM(XZ; Y; Z') as an option for eliminating *Y*; here we exercise the
// group-by variant MM(Z; Z'; Y | X) from the enumerated options instead.
TEST(MultiVarMmTest, DoubleTriangleGroupByOption) {
  Hypergraph h = Hypergraph::DoubleTriangle();
  auto options = EnumerateMmOptions(h, VarSet{1});
  // Find a group-by option (G = {X}).
  const MmExpr* pick = nullptr;
  for (const auto& o : options) {
    if (o.g == VarSet{0}) pick = &o;
  }
  ASSERT_NE(pick, nullptr) << "expected a G={X} option for eliminating Y";
  for (uint64_t seed = 0; seed < 6; ++seed) {
    WorkloadOptions opts;
    opts.tuples_per_relation = 40;
    opts.domain = 7;
    opts.seed = seed + 2000;
    QueryInput db = MakeWorkload(h, opts);
    EliminationPlan plan;
    PlanStep mm_step;
    mm_step.block = VarSet{1};
    mm_step.method = StepMethod::kMm;
    mm_step.mm = *pick;
    plan.steps.push_back(mm_step);
    for (int v : {0, 2, 3}) {
      PlanStep s;
      s.block = VarSet::Singleton(v);
      s.method = StepMethod::kForLoop;
      plan.steps.push_back(s);
    }
    EXPECT_EQ(ExecutePlan(h, db, plan), WcojBoolean(h, db))
        << "seed=" << seed;
  }
}

// Eliminating two variables at once by for-loops (a GVEO block of size 2)
// must agree with one-at-a-time elimination.
TEST(GveoBlockTest, BlockEliminationMatchesSingleton) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    WorkloadOptions opts;
    opts.tuples_per_relation = 40;
    opts.domain = 8;
    opts.seed = seed + 3000;
    Hypergraph h = Hypergraph::Cycle(4);
    QueryInput db = MakeWorkload(h, opts);
    EliminationPlan block_plan;
    PlanStep s1;
    s1.block = VarSet{1, 3};  // eliminate Y and W together
    s1.method = StepMethod::kForLoop;
    block_plan.steps.push_back(s1);
    PlanStep s2;
    s2.block = VarSet{0, 2};
    s2.method = StepMethod::kForLoop;
    block_plan.steps.push_back(s2);
    EXPECT_EQ(ExecutePlan(h, db, block_plan), WcojBoolean(h, db))
        << "seed=" << seed;
  }
}

// --- Width/engine consistency on the double-triangle: subw = 3/2 and the
// query is answerable by the TD plan with triangle bags.
TEST(DoubleTriangleTest, WidthsAndBounds) {
  Hypergraph h = Hypergraph::DoubleTriangle();
  const Rational omega(2371552, 1000000);
  OmegaSubwOptions opts;
  // The triangle witness extends: reuse the LP-found candidates only.
  auto r = OmegaSubw(h, omega, opts);
  // w-subw(double-triangle) <= subw = 3/2; and at least the triangle's
  // w-subw (the triangle embeds as a subquery on {X, Y, Z}).
  EXPECT_LE(r.lower, r.upper);
  EXPECT_LE(r.upper, Rational(2));
  EXPECT_GE(r.upper, closed_forms::OmegaSubwTriangle(omega));
}

// --- The GVEO cost of the paper's preferred triangle plan on the
// triangle witness equals the width (spot check of Definition 4.7 inner
// expression).
TEST(GveoCostTest, TriangleWitnessPlanCosts) {
  const Rational omega(5, 2);
  auto w = TriangleWitness(omega);
  Gveo g;
  g.blocks = {VarSet{1}, VarSet{0}, VarSet{2}};
  const Rational cost = GveoCostOn(Hypergraph::Triangle(), g, w, omega);
  EXPECT_EQ(cost, closed_forms::OmegaSubwTriangle(omega));
}

// --- Randomized equivalence sweep across all engines on all paper query
// classes (small instances, many seeds).
class AllEnginesTest : public ::testing::TestWithParam<int> {};

TEST_P(AllEnginesTest, EverythingAgreesWithBruteForce) {
  const int seed = GetParam();
  for (const Hypergraph& h :
       {Hypergraph::Triangle(), Hypergraph::Cycle(4), Hypergraph::Cycle(5),
        Hypergraph::Pyramid(3), Hypergraph::DoubleTriangle(),
        Hypergraph::Clique(4)}) {
    WorkloadOptions opts;
    opts.kind = seed % 3 == 0 ? WorkloadKind::kUniform
                : seed % 3 == 1 ? WorkloadKind::kZipf
                                : WorkloadKind::kDense;
    opts.tuples_per_relation = 35;
    opts.domain = opts.kind == WorkloadKind::kDense ? 6 : 9;
    opts.seed = static_cast<uint64_t>(seed) * 7919 + 13;
    opts.plant_witness = seed % 2 == 0;
    QueryInput db = MakeWorkload(h, opts);
    const bool expect = BruteForceBoolean(h, db);
    EXPECT_EQ(WcojBoolean(h, db), expect)
        << h.ToString() << " seed=" << seed;
    EXPECT_EQ(TdBooleanBest(h, db), expect)
        << h.ToString() << " seed=" << seed;
    EXPECT_EQ(ExecutePlan(h, db, ForLoopPlan(h)), expect)
        << h.ToString() << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllEnginesTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace fmmsw
