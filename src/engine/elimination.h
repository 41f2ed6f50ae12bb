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

#include <string>
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
  kAuto,     ///< pick by the operation-count cost model at run time
};

struct PlanStep {
  VarSet block;
  StepMethod method = StepMethod::kAuto;
  /// For kMm: the option to execute; mm.z must equal `block`.
  MmExpr mm;
};

struct EliminationPlan {
  std::vector<PlanStep> steps;
};

struct EliminationOptions {
  MmKernel kernel = MmKernel::kBoolean;
  /// omega used by the kAuto cost model.
  double omega = 2.8073549;  // log2 7
};

struct EliminationStats {
  int64_t forloop_steps = 0;
  int64_t mm_steps = 0;
  int64_t mm_cells = 0;         ///< total matrix cells multiplied
  int64_t intermediate_tuples = 0;
};

/// Builds the all-singleton for-loop plan (equivalent to plain variable
/// elimination, i.e. a TD plan).
EliminationPlan ForLoopPlan(const Hypergraph& h,
                            const std::vector<int>* order = nullptr);

/// Executes the plan on the database; returns the Boolean answer. The plan
/// must eliminate every vertex of `h`. CHECKs that each MM step's
/// expression is valid for the hypergraph state it executes against.
bool ExecutePlan(const Hypergraph& h, const QueryInput& db,
                 const EliminationPlan& plan,
                 const EliminationOptions& opts = {},
                 EliminationStats* stats = nullptr,
                 ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_ELIMINATION_H_
