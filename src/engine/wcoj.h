#ifndef FMMSW_ENGINE_WCOJ_H_
#define FMMSW_ENGINE_WCOJ_H_

/// \file
/// Worst-case optimal join ("for-loops", Section 1.1.1): a GenericJoin-
/// style backtracking search that instantiates variables one at a time,
/// intersecting the candidate values from every relation covering the
/// variable. Runs in O(N^{rho*(Q)}) data complexity and is the
/// combinatorial building block for bag evaluation inside TD plans.
///
/// Parallel execution: when the context's pool has more than one thread,
/// the first variable's candidate runs are expanded into tasks and
/// partitioned across the pool. Each worker recurses with its own range
/// stacks over the shared read-only tries; outputs are merged in task
/// order (and WcojJoin canonically sorts), so results are identical for
/// every thread count.

#include "hypergraph/hypergraph.h"
#include "relation/relation.h"

namespace fmmsw {

class ExecContext;

/// Evaluates the Boolean query: is the full natural join non-empty?
bool WcojBoolean(const Hypergraph& h, const QueryInput& db,
                 ExecContext* ctx = nullptr);

/// Computes the full join result projected onto `output_vars` (pass the
/// full vertex set for the complete join). Variables are instantiated in
/// increasing index order unless `order` is given. Output is canonically
/// sorted and deduplicated.
Relation WcojJoin(const Hypergraph& h, const QueryInput& db, VarSet output_vars,
                  const std::vector<int>* order = nullptr,
                  ExecContext* ctx = nullptr);

/// Counts the tuples of the full join without materializing projections.
int64_t WcojCount(const Hypergraph& h, const QueryInput& db,
                  ExecContext* ctx = nullptr);

}  // namespace fmmsw

#endif  // FMMSW_ENGINE_WCOJ_H_
