#ifndef FMMSW_ENGINE_ELIMINATION_H_
#define FMMSW_ENGINE_ELIMINATION_H_

/// \file
/// The w-query-plan interpreter (Definition E.12): executes a generalized
/// variable elimination order where each block is eliminated either by a
/// for-loop join (WCOJ over the incident relations, then projecting the
/// block away) or by a matrix multiplication MM((A\B)\G; (B\A)\G; X | G)
/// over a chosen cover of the incident relations (Definition 4.5, executed
/// as in Appendix E.6: group by G, multiply Boolean matrices indexed by the
/// block values, keep non-zero entries).

#include <vector>

#include "hypergraph/hypergraph.h"
#include "mm/kernel.h"  // MmKernel / BooleanProduct, shared by every engine
#include "relation/relation.h"
#include "width/mm_expr.h"

namespace fmmsw {

class ExecContext;

enum class StepMethod {
  kForLoop,  ///< join incident relations, project the block away
  kMm,       ///< matrix multiplication per the step's MmExpr
};

struct PlanStep {
  VarSet block;
  StepMethod method = StepMethod::kForLoop;
  /// For kMm: the option to execute; mm.z must equal `block`.
  MmExpr mm;
};

struct EliminationPlan {
  std::vector<PlanStep> steps;
};

struct EliminationOptions {
  MmKernel kernel = MmKernel::kBoolean;
};

struct EliminationStats {
  int64_t forloop_steps = 0;
  int64_t mm_steps = 0;
  int64_t mm_cells = 0;         ///< total matrix cells multiplied
  int64_t intermediate_tuples = 0;
};

/// Adds the atom `rel` over `schema` to a sub-query under construction:
/// a new hyperedge if `hg` has none with that schema, else `rel` is
/// intersected into the relation already bound to it. Keeps `hg`'s edges
/// and `in`'s relations aligned (edges stay duplicate-free). Relations are
/// shared by pointer; only a merge builds a new one. Every sub-query of
/// the generic plan path (for-loop joins, both MM sides, TD bags and the
/// state after each elimination step) is built this way.
void AddAtom(Hypergraph* hg, QueryInput* in, VarSet schema, RelationPtr rel,
             ExecContext* ctx);

/// Builds the all-singleton for-loop plan (equivalent to plain variable
/// elimination, i.e. a TD plan).
EliminationPlan ForLoopPlan(const Hypergraph& h,
                            const std::vector<int>* order = nullptr);

/// Executes the plan on the database; returns the Boolean answer. Input
/// relations are shared, never copied.
///
/// An MM step places each incident relation on the A side if its schema
/// lies inside x|g|z, on the B side if inside y|g|z (both if both). With
/// VA, VB the unions of the schemas placed on each side, it multiplies
/// over x' = x + (g cap VA \ VB) and y' = y + (g cap VB \ VA), grouped by
/// g' = g cap VA cap VB: a G variable that only one side covers becomes a
/// row (or column) dimension of that side instead of an unconstrained
/// group key. The output schema x|y|g = N(block) is unchanged.
///
/// A malformed plan throws QueryAbort(kInvalidArgument) (RunGuarded turns
/// it into a status): relations that do not match `h`'s edges, a block
/// that is empty, overlaps an earlier block or leaves the vertex set, a
/// plan that does not eliminate every vertex, an MM step with
/// mm.z != block, an incident relation neither MM side covers, or an MM
/// side that does not cover the block.
bool ExecutePlan(const Hypergraph& h, const QueryInput& db,
                 const EliminationPlan& plan,
                 const EliminationOptions& opts = {},
                 EliminationStats* stats = nullptr,
                 ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_ELIMINATION_H_
