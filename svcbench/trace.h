#ifndef SVCBENCH_TRACE_H_
#define SVCBENCH_TRACE_H_

/// \file
/// In-memory spans for the traced run. A span has a name, a start and
/// end, the span that caused it and the request it belongs to, plus the
/// deltas of the ExecStats counters the per-layer metrics read, taken
/// over the span. Spans are recorded by the driving thread only; worker
/// threads of the pool only bump the (atomic) counters.

#include <array>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/exec_context.h"

namespace svcbench {

/// The ExecStats counters a span records deltas of.
enum Counter {
  kIndexBuildNs,
  kIndexBuildRows,
  kSortNs,
  kSortRows,
  kPartitionCalls,
  kJoinOutputTuples,
  kFusedProbeTuples,
  kFusedEmitTuples,
  kWcojRuns,
  kWcojStealClaims,
  kMmProducts,
  kMmBaseCalls,
  kMmBitslicedCalls,
  kMmPackNs,
  kLpSolves,
  kLpPivots,
  kWidthCacheHits,
  kWidthCacheEvictions,
  kRetries,
  kNumCounters
};
using Counters = std::array<int64_t, kNumCounters>;

Counters ReadCounters(const fmmsw::ExecStats& stats);

int64_t NowNs();

struct Span {
  std::string name;
  std::string label;  ///< what the span acted on: a shape or relation name
  int64_t request = 0;
  int parent = -1;  ///< index into the span list; -1 for a request root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool aborted = false;  ///< closed by an exception unwinding through it
  Counters delta{};      ///< inclusive of child spans
  int64_t Ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(const fmmsw::ExecStats& stats) : stats_(stats) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a child of the innermost open span (or a request root).
  int Open(std::string name, std::string label, int64_t request);
  void Close(int id, bool aborted);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  const fmmsw::ExecStats& stats_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: closed on scope exit, marked aborted when an exception
/// (a QueryAbort out of a ladder rung) is unwinding through it.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, int64_t request,
            std::string label = "")
      : tracer_(tracer), exceptions_(std::uncaught_exceptions()) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Open(std::move(name), std::move(label), request);
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Close(id_, std::uncaught_exceptions() > exceptions_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
  int exceptions_;
};

}  // namespace svcbench

#endif  // SVCBENCH_TRACE_H_
