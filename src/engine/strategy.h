#ifndef FMMSW_ENGINE_STRATEGY_H_
#define FMMSW_ENGINE_STRATEGY_H_

/// \file
/// Capability metadata for the evaluation strategies — the raw material
/// of the recovery plane's degradation ladders (core/recovery.h).
///
/// The paper's central observation is that one query admits a spectrum
/// of strategies with very different memory/time profiles: the
/// MM-hybrids materialize dense matrices and packed panels (fast, but
/// memory-hungry), while the plain worst-case-optimal join streams over
/// sorted tries with only per-worker stacks. A StrategyCard records
/// where each strategy sits on that spectrum; the ladders below order
/// them by *descending* memory appetite, so a query that trips its
/// memory budget on one rung retries on the next-cheaper rung and the
/// last rung (plain WCOJ) needs essentially no transient memory beyond
/// its input indexes.
///
/// Everything here is pure metadata — no ExecContext flows through, and
/// these functions never touch a database — so the ctx-threading lint
/// exempts them by name.

#include <string>
#include <vector>

#include "mm/kernel.h"

namespace fmmsw {

class Hypergraph;

/// One evaluation strategy's capability card. `memory_rank` is a
/// coarse, dimensionless ordering key (higher = hungrier); ladders sort
/// descending on it.
struct StrategyCard {
  std::string name;    ///< stable rung name (logs, RecoveryReport, tests)
  bool uses_mm = false;
  /// Counting/boolean kernel the rung dispatches (meaningful iff uses_mm).
  MmKernel kernel = MmKernel::kBoolean;
  /// Partition exponent for the degree-split hybrids: Delta =
  /// N^{(omega-1)/(omega+1)} (meaningful iff uses_mm).
  double omega = 3.0;
  int memory_rank = 0;
};

/// Degradation ladder for triangle *counting*: bit-sliced 0/1 counting
/// product -> plain WCOJ count. One MM rung per ladder: the other
/// counting kernels charge the same m x n int64 output, so a budget that
/// aborts the bit-sliced product aborts them too; the measured kernel
/// menu is in the README ("MM kernels").
const std::vector<StrategyCard>& TriangleCountLadder();

/// Degradation ladder for the *Boolean* triangle query: bit-packed
/// Boolean product hybrid (Delta at omega = 3) -> plain WCOJ.
const std::vector<StrategyCard>& TriangleBooleanLadder();

/// Degradation ladder for a generic Boolean query: "elimination" (the
/// GVEO interpreter over ForLoopPlan) -> "best-td" (TdBooleanBest) ->
/// "wcoj" (WcojBoolean). The first two materialize bags, the WCOJ
/// streams.
const std::vector<StrategyCard>& GenericBooleanLadder();

/// True iff `h` is exactly the paper's triangle query in its canonical
/// layout (Hypergraph::Triangle(): vertices {X,Y,Z}, edges [XY, YZ, XZ]
/// in that order) — the layout the engine/triangle.h specializations
/// assume of their database argument.
bool IsTriangleQuery(const Hypergraph& h);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_STRATEGY_H_
