#ifndef FMMSW_CORE_API_H_
#define FMMSW_CORE_API_H_

/// \file
/// Public facade of the fmmsw library. A downstream user needs three
/// things: (1) define a Boolean conjunctive query as a hypergraph plus a
/// database, (2) ask for its widths (subw / w-subw, Tables 1-2), and
/// (3) evaluate it. Evaluation has one status-returning path: the
/// Evaluate*WithRecovery entry points below validate the query and walk
/// its degradation ladder under guardrails. To run one engine directly
/// (WcojBoolean, TdBooleanBest, ExecutePlan, the engine/triangle.h
/// hybrids, ...), call it, or wrap the call in RunGuarded
/// (core/exec_context.h) to arm limits and get an ExecResult back. See
/// examples/quickstart.cpp.

#include <string>

#include "core/exec_context.h"
#include "core/recovery.h"
#include "engine/elimination.h"
#include "hypergraph/hypergraph.h"
#include "relation/relation.h"
#include "util/rational.h"
#include "width/omega_subw.h"
#include "width/subw.h"

namespace fmmsw {

/// Width report for a query at a given MM exponent.
struct WidthReport {
  Rational rho_star;
  Rational fhtw;
  Rational subw;
  Rational omega_subw_lower;
  Rational omega_subw_upper;
  bool omega_subw_exact = false;
  int num_mm_terms = 0;
  long lps_solved = 0;
  long lp_warm_starts = 0;   ///< LPs that replayed a previous basis
  long lp_pivots = 0;        ///< total simplex pivots across all width LPs
  int64_t plan_ns = 0;       ///< wall time spent planning (all widths)
  bool from_cache = false;   ///< w-subw served by the process WidthCache
};

/// Computes every width of the query hypergraph at the given omega.
/// For clustered hypergraphs (cliques, pyramids, Lemma C.15) the w-subw is
/// exact; otherwise certified bounds are returned (add witnesses via
/// OmegaSubwOptions to tighten the lower bound).
/// `ctx` (nullptr = process default) supplies the planner thread pool,
/// the guardrail polled between LP solves, and the planner ExecStats
/// counters; results are identical at every thread count.
WidthReport ComputeWidths(const Hypergraph& h, const Rational& omega,
                          const OmegaSubwOptions& opts = {},
                          ExecContext* ctx = nullptr);

/// Renders the report as a human-readable table.
std::string FormatWidthReport(const Hypergraph& h, const Rational& omega,
                              const WidthReport& report);

/// Structural validation of a (query, database) pair: one relation per
/// hyperedge, each relation's schema equal to its edge's variable set,
/// every edge variable inside the hypergraph's vertex range, and every
/// vertex covered by some hyperedge. Returns
/// kOk or kInvalidArgument with a message naming the first mismatch.
/// The *WithRecovery entry points below run this before touching the
/// engines; call it directly to validate inputs without evaluating.
ExecResult ValidateQuery(const Hypergraph& h, const QueryInput& db);

/// \name Recovery entry points
/// Guarded evaluation with degraded-plan retry (core/recovery.h): each
/// call builds the query's degradation ladder from the engine/strategy.h
/// capability cards — for the canonical triangle query the bit-sliced
/// counting product -> plain-WCOJ ladder (Boolean: Boolean-product
/// hybrid -> WCOJ); for general queries elimination -> best-TD -> WCOJ
/// (Boolean) or the single-rung WCOJ (count/join) — and walks it with
/// RunWithRecovery under `limits` and `policy`. A retryable abort
/// (memory budget, capacity cap, injected fault-plan pressure) falls
/// through to the next cheaper rung; the answer returned is
/// bit-identical to a clean run of the winning rung at every thread
/// count. On any non-kOk status the output parameter is untouched.
/// `report`, when non-null, records the ladder walk (attempts, failures,
/// winning rung).
/// @{
ExecResult EvaluateBooleanWithRecovery(
    const Hypergraph& h, const QueryInput& db, bool* result,
    ExecContext* ctx = nullptr, const QueryLimits& limits = {},
    const RetryPolicy& policy = {}, RecoveryReport* report = nullptr);
ExecResult EvaluateCountWithRecovery(
    const Hypergraph& h, const QueryInput& db, int64_t* count,
    ExecContext* ctx = nullptr, const QueryLimits& limits = {},
    const RetryPolicy& policy = {}, RecoveryReport* report = nullptr);
ExecResult EvaluateJoinWithRecovery(
    const Hypergraph& h, const QueryInput& db, VarSet output_vars,
    Relation* result, ExecContext* ctx = nullptr,
    const QueryLimits& limits = {}, const RetryPolicy& policy = {},
    RecoveryReport* report = nullptr);
/// @}

}  // namespace fmmsw

#endif  // FMMSW_CORE_API_H_
