// Tests for the PANDA machinery: w-Shannon inequalities (Definition E.3),
// LP certification of validity, proof-sequence verification (Theorem E.8),
// and the proof-sequence executor reproducing Figure 1.

#include <limits>

#include "core/exec_context.h"
#include "engine/triangle.h"
#include "gtest/gtest.h"
#include "panda/executor.h"
#include "panda/inequality.h"
#include "entropy/witnesses.h"
#include "panda/proof.h"
#include "relation/generators.h"
#include "util/random.h"

namespace fmmsw {
namespace {

class OmegaParamTest : public ::testing::TestWithParam<Rational> {};

TEST_P(OmegaParamTest, TriangleInequalityIsDominantAndValid) {
  const Rational omega = GetParam();
  auto ineq = TriangleInequality(omega);
  EXPECT_TRUE(CheckDominance(ineq, omega));
  // Eq. (13) is a Shannon inequality: certified by LP over the cone.
  EXPECT_TRUE(VerifyShannon(ineq, VarSet::Full(3)));
}

TEST_P(OmegaParamTest, TriangleProofSequenceVerifies) {
  const Rational omega = GetParam();
  auto ineq = TriangleInequality(omega);
  auto seq = TriangleProofSequence(omega);
  EXPECT_TRUE(VerifyProofSequence(ineq, seq, omega));
}

INSTANTIATE_TEST_SUITE_P(Omegas, OmegaParamTest,
                         ::testing::Values(Rational(2), Rational(9, 4),
                                           Rational(2371552, 1000000),
                                           Rational(5, 2), Rational(3)));

TEST(InequalityTest, BogusInequalityRejectedByLp) {
  // h(XYZ) <= h(X) is not a Shannon inequality.
  OmegaShannonInequality bogus;
  bogus.plain.push_back(PlainLhsTerm{VarSet::Full(3), Rational(1)});
  bogus.rhs.push_back(CondTerm{VarSet{0}, VarSet::Empty(), Rational(1)});
  EXPECT_FALSE(VerifyShannon(bogus, VarSet::Full(3)));
}

TEST(InequalityTest, DominanceRejectsBadTriples) {
  const Rational omega(5, 2);
  auto ineq = TriangleInequality(omega);
  // Corrupt the MM triple: alpha/kappa < 1 violates Definition E.1.
  ineq.mm[0].alpha = Rational(1, 2);
  EXPECT_FALSE(CheckDominance(ineq, omega));
}

TEST(InequalityTest, SlackNonNegativeOnRandomPolymatroids) {
  // Property check of Eq. (13): RHS - LHS >= 0 on atom-composition
  // polymatroids (which are entropic, hence in the Shannon cone).
  const Rational omega(2371552, 1000000);
  auto ineq = TriangleInequality(omega);
  Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    AtomComposition c;
    const int atoms = static_cast<int>(rng.Uniform(1, 5));
    for (int a = 0; a < atoms; ++a) {
      int id = c.AddAtom(Rational(rng.Uniform(0, 6), 3));
      for (int v = 0; v < 3; ++v) {
        if (rng.Flip(0.6)) c.Attach(v, id);
      }
    }
    auto h = c.Build(VarSet::Full(3));
    EXPECT_LE(InequalitySlack(ineq, h), Rational(0)) << "trial " << trial;
  }
}

TEST(ProofTest, TruncatedSequenceFailsVerification) {
  const Rational omega(5, 2);
  auto ineq = TriangleInequality(omega);
  auto seq = TriangleProofSequence(omega);
  seq.steps.pop_back();  // drop the last composition
  EXPECT_FALSE(VerifyProofSequence(ineq, seq, omega));
}

TEST(ProofTest, OverconsumingSequenceFails) {
  const Rational omega(5, 2);
  auto ineq = TriangleInequality(omega);
  auto seq = TriangleProofSequence(omega);
  // Duplicate the first decomposition: consumes h(XY) weight 2 total plus
  // the composition's use — exceeding the available 2.
  seq.steps.insert(seq.steps.begin(), seq.steps[0]);
  EXPECT_FALSE(VerifyProofSequence(ineq, seq, omega));
}

TEST(ExecutorTest, DerivedTriangleAlgorithmMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                              WorkloadKind::kDense}) {
      WorkloadOptions opts;
      opts.kind = kind;
      opts.tuples_per_relation = 70;
      opts.domain = kind == WorkloadKind::kDense ? 10 : 16;
      opts.seed = seed + 600;
      opts.plant_witness = (seed % 2 == 0);
      Hypergraph h = Hypergraph::Triangle();
      QueryInput db = MakeWorkload(h, opts);
      const bool expect = BruteForceBoolean(h, db);
      EXPECT_EQ(PandaTriangleBoolean(db, 2.371552), expect)
          << "seed=" << seed;
      EXPECT_EQ(PandaTriangleBoolean(db, 2.0), expect) << "seed=" << seed;
      EXPECT_EQ(PandaTriangleBoolean(db, 3.0), expect) << "seed=" << seed;
    }
  }
}

TEST(ExecutorTest, MatchesSpecializedTriangleAlgorithm) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    WorkloadOptions opts;
    opts.kind = WorkloadKind::kZipf;
    opts.tuples_per_relation = 120;
    opts.domain = 40;
    opts.seed = seed + 70;
    QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
    EXPECT_EQ(PandaTriangleBoolean(db, 2.371552),
              TriangleMm(db, 2.371552))
        << "seed=" << seed;
  }
}

TEST(ExecutorTest, StatsReportFigureOneShape) {
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 300;
  opts.domain = 60;
  opts.seed = 1;
  QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
  PandaStats stats;
  PandaTriangleBoolean(db, 2.371552, MmKernel::kBoolean, &stats);
  // Figure 1: three partitions (R, S, T) and three light-join
  // compositions; the MM group executes once (unless a light table
  // answered first).
  EXPECT_EQ(stats.partitions, 3);
  EXPECT_LE(stats.joins, 3);
  EXPECT_LE(stats.mm_executed, 1);
}

TEST(ExecutorTest, FlatInternedDimensionsHandleExtremeValues) {
  // Regression for the flat-index port of the executor's matrix-dimension
  // interning (was std::unordered_map<Value, int>): negative values and
  // the int32 boundaries must round-trip through the packed 64-bit keys.
  const Value lo = std::numeric_limits<Value>::min();
  const Value hi = std::numeric_limits<Value>::max();
  for (bool plant : {false, true}) {
    QueryInput db;
    Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
    // Dense small-domain skeleton over extreme values so every value is
    // heavy and the MM group executes.
    const Value xs[4] = {lo, -7, 7, hi};
    for (Value a : xs) {
      for (Value b : xs) {
        if (a == b && !plant) continue;  // kill the diagonal witnesses
        r.Add({a, b});
        s.Add({a, b});
        t.Add({a, b});
      }
    }
    db.relations.push_back(r);
    db.relations.push_back(s);
    db.relations.push_back(t);
    const bool expect = BruteForceBoolean(Hypergraph::Triangle(), db);
    for (double omega : {2.0, 2.371552, 3.0}) {
      PandaStats stats;
      EXPECT_EQ(PandaTriangleBoolean(db, omega, MmKernel::kBoolean, &stats),
                expect)
          << "plant=" << plant << " omega=" << omega;
      for (MmKernel kernel : {MmKernel::kStrassen, MmKernel::kNaive,
                              MmKernel::kBitSliced}) {
        EXPECT_EQ(PandaTriangleBoolean(db, omega, kernel), expect)
            << "plant=" << plant << " omega=" << omega
            << " kernel=" << static_cast<int>(kernel);
      }
    }
  }
}

TEST(ExecutorTest, ProofSequenceRunsUnderSortOrderScope) {
  // The executor opens an ExecContext::SortOrderScope; repeated executions
  // on the same context must not leak cache state across calls (each call
  // clears the cache on entry and exit).
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 200;
  opts.domain = 50;
  opts.seed = 12;
  QueryInput db = MakeWorkload(Hypergraph::Triangle(), opts);
  ExecContext ec(1);
  const bool expect = BruteForceBoolean(Hypergraph::Triangle(), db);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(
        PandaTriangleBoolean(db, 2.371552, MmKernel::kBoolean, nullptr, &ec),
        expect);
  }
  EXPECT_GE(ec.stats().partition_calls.load(), 9);
}

}  // namespace
}  // namespace fmmsw
