#ifndef FMMSW_CORE_EXEC_STATUS_H_
#define FMMSW_CORE_EXEC_STATUS_H_

/// \file
/// Terminal status taxonomy for guarded query execution, plus the
/// exception type that carries a violation out of the engines.
///
/// The engines signal guardrail violations (cancellation, deadline,
/// memory budget, capacity caps, bad input) by throwing QueryAbort from
/// a poll point or accounting site; the abort unwinds through the
/// operator/engine stack — which is exception-safe: scratch-arena leases
/// and memory charges are RAII, and ThreadPool::Run captures worker
/// exceptions and rethrows on the caller — until a status-returning
/// entry point (RunGuarded in exec_context.h, or the core/api.h
/// Evaluate*WithRecovery ladders built on it) converts it into an
/// ExecResult. Programmer errors (contract violations) remain
/// FMMSW_CHECK aborts; QueryAbort is reserved for data- and
/// resource-dependent failures a correct program can hit at runtime.
///
/// The recovery plane (core/recovery.h) splits the taxonomy into
/// *retryable* statuses — resource pressure a cheaper plan can dodge
/// (kMemoryLimitExceeded, kCapacityExceeded) — and *terminal* ones that
/// no retry can fix (kCancelled, kDeadlineExceeded, kInvalidArgument).
/// kRejected and kRetryExhausted are produced above the engines: by the
/// admission controller shedding an overloaded queue (core/admission.h)
/// and by RunWithRecovery running out of degradation-ladder rungs.

#include <stdexcept>
#include <string>

namespace fmmsw {

/// Terminal status of a guarded execution.
enum class ExecStatus {
  kOk = 0,
  kCancelled,            ///< QueryGuard::Cancel() (or a poll hook) fired
  kDeadlineExceeded,     ///< wall-clock deadline passed at a poll point
  kMemoryLimitExceeded,  ///< tracked allocations exceeded the byte budget
  kCapacityExceeded,     ///< structural cap (2^30-entry flat index,
                         ///< max-output-rows limit, LP pivot budget) hit
  kInvalidArgument,      ///< malformed query/database (arity mismatch,
                         ///< unknown variable, edge/relation count skew)
  kRejected,             ///< shed by the admission controller: no slot and
                         ///< the bounded FIFO queue is full
  kRetryExhausted,       ///< every degradation-ladder rung (or the retry
                         ///< budget) failed with a retryable status
};

/// Stable lower-case name for a status (logs, bench JSON, tests). The
/// switch is total and has no default, so adding an ExecStatus value
/// without naming it here fails the -Wswitch/-Werror CI builds;
/// recovery_test round-trips every value.
inline const char* StatusString(ExecStatus s) {
  switch (s) {
    case ExecStatus::kOk: return "ok";
    case ExecStatus::kCancelled: return "cancelled";
    case ExecStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ExecStatus::kMemoryLimitExceeded: return "memory_limit_exceeded";
    case ExecStatus::kCapacityExceeded: return "capacity_exceeded";
    case ExecStatus::kInvalidArgument: return "invalid_argument";
    case ExecStatus::kRejected: return "rejected";
    case ExecStatus::kRetryExhausted: return "retry_exhausted";
  }
  return "unknown";
}

/// Exception carrying a non-kOk status out of the exec pipeline. Derives
/// from std::runtime_error so legacy callers that bypass the guarded
/// entry points still see a catchable exception instead of an abort.
class QueryAbort : public std::runtime_error {
 public:
  QueryAbort(ExecStatus status, const std::string& message)
      : std::runtime_error(message), status_(status) {}

  ExecStatus status() const { return status_; }

 private:
  ExecStatus status_;
};

/// Resource limits armed on a QueryGuard for one guarded execution.
/// Zero means "no limit" for every field.
struct QueryLimits {
  int64_t deadline_ms = 0;          ///< wall-clock budget from Arm() time
  int64_t memory_budget_bytes = 0;  ///< cap on tracked live allocations
  int64_t max_output_rows = 0;      ///< cap on emitted result tuples
};

/// Outcome of a guarded execution: a status plus a human-readable
/// failure detail (empty on kOk).
struct ExecResult {
  ExecStatus status = ExecStatus::kOk;
  std::string message;

  bool ok() const { return status == ExecStatus::kOk; }
};

}  // namespace fmmsw

#endif  // FMMSW_CORE_EXEC_STATUS_H_
