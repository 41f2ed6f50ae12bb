#ifndef SVCBENCH_CLIENT_H_
#define SVCBENCH_CLIENT_H_

/// \file
/// Issues one request against the service API. The untraced client calls
/// the Database entry points a caller would (Query{Boolean,Count,Join},
/// PlanWidths, Begin/Append/Commit). The traced client issues the same
/// request through the public functions those entry points are built
/// from — Snapshot::Bind, ValidateQuery, the admission gate,
/// RunWithRecovery over the engine/strategy.h ladders, ComputeWidths —
/// with a span around each, so that layer times can be read off without
/// changing the library.

#include <cstdint>

#include "core/exec_context.h"
#include "trace.h"
#include "workload.h"

namespace svcbench {

struct Outcome {
  fmmsw::ExecResult result;
  Answer answer;
  fmmsw::Relation rows;  ///< a join's result until Settle digests it
};

/// Fills a join's answer from its rows and frees them. Callers run it
/// after the request's clock stops: the digest is the benchmark's work.
void Settle(Outcome* out);

/// Runs `req` through the Database entry points. `delta` is the body of
/// a commit request and is ignored by the other kinds.
Outcome Issue(Workload& w, const Request& req, fmmsw::ExecContext& ec,
              const Delta& delta);

/// Runs `req` through the public layer functions, recording spans for
/// request `id` on `tracer`. `heavy_dim`, when a triangle MM rung runs,
/// is raised to the largest matrix side that rung multiplied.
Outcome IssueTraced(Workload& w, const Request& req, fmmsw::ExecContext& ec,
                    const Delta& delta, Tracer& tracer, int64_t id,
                    int64_t* heavy_dim);

}  // namespace svcbench

#endif  // SVCBENCH_CLIENT_H_
