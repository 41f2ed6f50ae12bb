#ifndef SVCBENCH_WORKLOAD_H_
#define SVCBENCH_WORKLOAD_H_

/// \file
/// The service benchmark's workloads: each generates its inputs from a
/// seed, loads them into a Database, computes its answer oracles, and
/// hands out a deterministic request stream whose answers it checks.
/// See README.md in this directory for why each workload exists.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "hypergraph/hypergraph.h"
#include "relation/relation.h"

namespace svcbench {

/// What one request asks of the service.
enum class Kind { kBool, kCount, kJoin, kPlan, kCommit };
const char* KindName(Kind kind);

/// One query shape bound to catalog relations (atoms[i] -> edge i).
struct Shape {
  std::string name;
  fmmsw::Hypergraph h;
  std::vector<std::string> atoms;
};

struct Request {
  Kind kind = Kind::kBool;
  int shape = 0;  ///< index into Workload::shapes(); unused by commits
};

/// A request's answer in comparable form. Join results are kept as a
/// row count and an order-sensitive digest of the canonical rows; plans
/// as the rendered width values.
struct Answer {
  bool truth = false;
  int64_t count = 0;
  uint64_t digest = 0;
  std::string widths;

  bool operator==(const Answer& o) const {
    return truth == o.truth && count == o.count && digest == o.digest &&
           widths == o.widths;
  }
};

/// Rows to append, by relation name: the body of one commit.
using Delta = std::vector<std::pair<std::string, fmmsw::Relation>>;

/// Digest of a relation's rows in stored order.
uint64_t RowsDigest(const fmmsw::Relation& r);

/// The width values of a plan (everything but counters and timings).
std::string WidthValues(const fmmsw::WidthReport& report);

/// The MM exponent plans are made at.
fmmsw::Rational PlanOmega();

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs, loads the catalog and computes the oracles.
  /// `ec` is the context the requests will run on; oracle work runs on
  /// a private context so it leaves no trace in `ec`'s counters.
  virtual void Setup(fmmsw::ExecContext& ec) = 0;
  /// Requests run once after Setup, untimed, to fill caches and arenas.
  virtual std::vector<Request> Warmup() const = 0;
  /// The i-th request of the measured stream.
  virtual Request At(int64_t i) const = 0;
  /// Requests in one round of the stream: every round holds the same mix.
  virtual int64_t RoundSize() const = 0;
  /// Checks a request's answer; returns an empty string when correct.
  /// Called in stream order, warm-up included.
  virtual std::string Check(const Request& req, const Answer& answer) = 0;
  /// Checks that need the whole run (e.g. the final epoch against an
  /// independent rebuild); returns an empty string when correct.
  virtual std::string Finish(fmmsw::ExecContext& ec) = 0;
  /// Human-readable size and mix, printed with the results.
  virtual std::string Describe() const = 0;
  /// The guardrails every request carries, as a service caller's would.
  virtual fmmsw::QueryLimits Limits() const = 0;

  /// The rows the next commit appends. Advances the commit ordinal.
  virtual Delta NextDelta() { return {}; }

  fmmsw::Database& db() { return db_; }
  const std::vector<Shape>& shapes() const { return shapes_; }

 protected:
  fmmsw::Database db_;
  std::vector<Shape> shapes_;
};

/// The workload called `name` ("dense_triangle", "skew_shapes",
/// "ingest_replan"), or nullptr. `smoke` shrinks its inputs to run in
/// well under a second.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke);

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOAD_H_
