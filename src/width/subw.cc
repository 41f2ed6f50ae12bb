#include "width/subw.h"

#include <chrono>

#include "core/exec_context.h"
#include "lp/simplex.h"
#include "util/check.h"
#include "width/maxmin_solver.h"

namespace fmmsw {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Rational FractionalEdgeCover(const Hypergraph& h, VarSet target,
                             ExecContext* ctx) {
  FMMSW_CHECK(!target.empty());
  LpModel<Rational> m;
  m.maximize = false;
  std::vector<int> weight_var;
  for (size_t e = 0; e < h.edges().size(); ++e) {
    int v = m.AddVar();
    weight_var.push_back(v);
    m.AddObjective(v, Rational(1));
  }
  for (int vert : target.Members()) {
    auto& row = m.AddRow(Sense::kGe, Rational(1), "cover");
    for (size_t e = 0; e < h.edges().size(); ++e) {
      if (h.edges()[e].Contains(vert)) {
        row.coeffs.emplace_back(weight_var[e], Rational(1));
      }
    }
    if (row.coeffs.empty()) {
      throw QueryAbort(ExecStatus::kInvalidArgument,
                       "FractionalEdgeCover: variable " + h.names()[vert] +
                           " is covered by no hyperedge");
    }
  }
  if (ctx != nullptr) ctx->guard().Poll(FaultSite::kLp);
  auto res = SolveSimplex(m);
  FMMSW_CHECK(res.status == LpStatus::kOptimal);
  if (ctx != nullptr) {
    Bump(ctx->stats().lp_solves);
    Bump(ctx->stats().lp_pivots, res.pivots);
  }
  return res.objective;
}

Rational RhoStar(const Hypergraph& h, ExecContext* ctx) {
  return FractionalEdgeCover(h, h.vertices(), ctx);
}

WidthTd MinFhtwTd(const Hypergraph& h, ExecContext* ctx) {
  std::vector<TreeDecomposition> tds = EnumerateTds(h);
  FMMSW_CHECK(!tds.empty());
  WidthTd best;
  for (size_t i = 0; i < tds.size(); ++i) {
    Rational width(0);
    for (const VarSet& bag : tds[i].bags) {
      width = Rational::Max(width, FractionalEdgeCover(h, bag, ctx));
    }
    if (i == 0 || width < best.width) best = {std::move(tds[i]), width};
  }
  return best;
}

Rational Fhtw(const Hypergraph& h, ExecContext* ctx) {
  return MinFhtwTd(h, ctx).width;
}

SubwResult SubmodularWidth(const Hypergraph& h, ExecContext* ctx) {
  const int64_t t0 = NowNs();
  SubwResult out;
  out.tds = EnumerateTds(h);
  FMMSW_CHECK(!out.tds.empty());

  // One term per TD; the term's alternatives are its bags, matching
  //   subw = max_h min_TD max_bag h(bag)           (Eq. 19)
  // distributed into one LP per bag selection (Eq. 37/39), searched with
  // branch-and-bound instead of full tuple enumeration.
  MaxMinSolver solver(h, ctx);
  for (const auto& td : out.tds) {
    std::vector<LinComb> alternatives;
    for (const VarSet& bag : td.bags) {
      alternatives.push_back(LinComb{LinTerm{bag, Rational(1)}});
    }
    solver.AddTerm(std::move(alternatives));
  }
  solver.CoordinateAscent();
  solver.BranchAndBound();
  out.value = solver.SolveExact(&out.worst_case);
  out.lps_solved = static_cast<int>(solver.lps_solved());
  out.lp_warm_starts = solver.lp_warm_starts();
  out.lp_pivots = solver.lp_pivots();
  out.plan_ns = NowNs() - t0;
  if (ctx != nullptr) Bump(ctx->stats().plan_ns, out.plan_ns);
  return out;
}

}  // namespace fmmsw
