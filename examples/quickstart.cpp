// Quickstart: define a Boolean conjunctive query, compute all of its
// widths (rho*, fhtw, subw, w-subw), and evaluate it with both the
// combinatorial engine and the paper's MM-hybrid triangle algorithm.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/api.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "relation/generators.h"

int main() {
  using namespace fmmsw;

  // 1. The triangle query Q() :- R(X,Y), S(Y,Z), T(X,Z)   (paper Eq. 2).
  Hypergraph q = Hypergraph::Triangle();
  std::printf("Query: %s\n\n", q.ToString().c_str());

  // 2. Widths at the current best MM exponent w = 2.371552.
  const Rational omega(2371552, 1000000);
  WidthReport report = ComputeWidths(q, omega);
  std::printf("%s\n", FormatWidthReport(q, omega, report).c_str());

  // 3. An execution context: thread pool (FMMSW_THREADS), reusable
  //    scratch arenas, and per-op stats shared by everything below.
  ExecContext ctx;

  // A skewed instance with a planted triangle.
  WorkloadOptions opts;
  opts.kind = WorkloadKind::kZipf;
  opts.tuples_per_relation = 5000;
  opts.domain = 1200;
  opts.plant_witness = true;
  QueryInput db = MakeWorkload(q, opts);
  std::printf("instance: N = %zu tuples\n", db.TotalSize());

  // 4. Evaluate: generic worst-case-optimal join vs the Figure-1
  //    MM-hybrid algorithm (they must agree). Both run on the context.
  const bool combinatorial = WcojBoolean(q, db, &ctx);
  const bool mm_hybrid =
      TriangleMm(db, omega.ToDouble(), MmKernel::kBoolean, nullptr, &ctx);
  std::printf("combinatorial WCOJ answer : %s\n",
              combinatorial ? "true" : "false");
  std::printf("Figure-1 MM hybrid answer : %s\n",
              mm_hybrid ? "true" : "false");

  // 5. The context's per-op trace of everything that just ran.
  std::printf("\nexecution stats:\n%s", ctx.stats().ToString().c_str());
  return combinatorial == mm_hybrid ? 0 : 1;
}
