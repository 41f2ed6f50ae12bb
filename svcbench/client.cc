#include "client.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/api.h"
#include "core/recovery.h"
#include "engine/strategy.h"
#include "engine/td_eval.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"

namespace svcbench {

using fmmsw::Database;
using fmmsw::ExecContext;
using fmmsw::ExecResult;
using fmmsw::PlanRung;
using fmmsw::QueryInput;
using fmmsw::Relation;
using fmmsw::StrategyCard;

namespace {

fmmsw::QueryOptions Options(const Workload& w, Kind kind) {
  fmmsw::QueryOptions opts;
  opts.klass = kind == Kind::kBool ? fmmsw::QueryClass::kSmallProbe
                                   : fmmsw::QueryClass::kHeavyAnalytic;
  opts.limits = w.Limits();
  return opts;
}

/// Turns a status-returning call into a QueryAbort, so it can run inside
/// RunGuarded with the request's limits armed.
void ThrowIfFailed(const ExecResult& r) {
  if (!r.ok()) throw fmmsw::QueryAbort(r.status, r.message);
}

}  // namespace

void Settle(Outcome* out) {
  if (out->rows.arity() == 0) return;
  out->answer.count = static_cast<int64_t>(out->rows.size());
  out->answer.digest = RowsDigest(out->rows);
  out->rows = Relation();
}

Outcome Issue(Workload& w, const Request& req, ExecContext& ec,
              const Delta& delta) {
  Outcome out;
  Database& db = w.db();
  if (req.kind == Kind::kCommit) {
    out.result = fmmsw::RunGuarded(ec, w.Limits(), [&] {
      Database::Transaction txn = db.Begin(&ec);
      for (const auto& [name, rows] : delta) txn.Append(name, rows);
      txn.Commit();
    });
    return out;
  }
  const Shape& s = w.shapes()[req.shape];
  const fmmsw::Snapshot snap = db.snapshot(&ec);
  const fmmsw::QueryOptions opts = Options(w, req.kind);
  switch (req.kind) {
    case Kind::kBool:
      out.result = db.QueryBoolean(snap, s.h, s.atoms, &out.answer.truth, opts,
                                   &ec);
      break;
    case Kind::kCount:
      out.result = db.QueryCount(snap, s.h, s.atoms, &out.answer.count, opts,
                                 &ec);
      break;
    case Kind::kJoin:
      out.result = db.QueryJoin(snap, s.h, s.atoms, s.h.vertices(), &out.rows,
                                opts, &ec);
      break;
    case Kind::kPlan: {
      fmmsw::WidthReport report;
      out.result = fmmsw::RunGuarded(ec, opts.limits, [&] {
        ThrowIfFailed(db.PlanWidths(snap, s.h, s.atoms, PlanOmega(), &report,
                                    {}, &ec));
      });
      if (out.result.ok()) out.answer.widths = WidthValues(report);
      break;
    }
    case Kind::kCommit:
      break;
  }
  return out;
}

namespace {

/// The ladder core/api.cc builds for a request, rebuilt from the same
/// strategy cards and rung functions, with a span around every rung.
class TracedLadder {
 public:
  TracedLadder(Tracer& tracer, int64_t id) : tracer_(tracer), id_(id) {}

  void Add(const std::string& name, std::function<void(ExecContext&)> body) {
    Tracer* tracer = &tracer_;
    const int64_t id = id_;
    rungs_.push_back({name, [tracer, id, name, body](ExecContext& ec) {
                        SpanScope span(tracer, "rung:" + name, id);
                        body(ec);
                      }});
  }
  const std::vector<PlanRung>& rungs() const { return rungs_; }

 private:
  Tracer& tracer_;
  const int64_t id_;
  std::vector<PlanRung> rungs_;
};

void BooleanRungs(const fmmsw::Hypergraph& h, const QueryInput& in,
                  bool* result, int64_t* heavy_dim, TracedLadder* ladder) {
  if (fmmsw::IsTriangleQuery(h)) {
    for (const StrategyCard& card : fmmsw::TriangleBooleanLadder()) {
      if (card.uses_mm) {
        ladder->Add(card.name, [&in, card, result, heavy_dim](ExecContext& ec) {
          fmmsw::TriangleStats stats;
          *result = fmmsw::TriangleMm(in, card.omega, card.kernel, &stats, &ec);
          *heavy_dim = std::max({*heavy_dim, stats.mm_dim_x, stats.mm_dim_y,
                                 stats.mm_dim_z});
        });
      } else {
        ladder->Add(card.name, [&h, &in, result](ExecContext& ec) {
          *result = fmmsw::WcojBoolean(h, in, &ec);
        });
      }
    }
    return;
  }
  for (const StrategyCard& card : fmmsw::GenericBooleanLadder()) {
    if (card.name == "elimination") {
      ladder->Add(card.name, [&h, &in, result](ExecContext& ec) {
        *result = fmmsw::ExecutePlan(h, in, fmmsw::ForLoopPlan(h), {}, nullptr,
                                     &ec);
      });
    } else if (card.name == "best-td") {
      ladder->Add(card.name, [&h, &in, result](ExecContext& ec) {
        *result = fmmsw::TdBooleanBest(h, in, &ec);
      });
    } else {
      ladder->Add(card.name, [&h, &in, result](ExecContext& ec) {
        *result = fmmsw::WcojBoolean(h, in, &ec);
      });
    }
  }
}

void CountRungs(const fmmsw::Hypergraph& h, const QueryInput& in,
                int64_t* count, TracedLadder* ladder) {
  if (fmmsw::IsTriangleQuery(h)) {
    for (const StrategyCard& card : fmmsw::TriangleCountLadder()) {
      if (card.uses_mm) {
        ladder->Add(card.name, [&in, card, count](ExecContext& ec) {
          *count = fmmsw::TriangleCountMm(in, card.kernel, &ec);
        });
      } else {
        ladder->Add(card.name, [&h, &in, count](ExecContext& ec) {
          *count = fmmsw::WcojCount(h, in, &ec);
        });
      }
    }
    return;
  }
  ladder->Add("wcoj", [&h, &in, count](ExecContext& ec) {
    *count = fmmsw::WcojCount(h, in, &ec);
  });
}

}  // namespace

Outcome IssueTraced(Workload& w, const Request& req, ExecContext& ec,
                    const Delta& delta, Tracer& tracer, int64_t id,
                    int64_t* heavy_dim) {
  Outcome out;
  Database& db = w.db();
  SpanScope root(&tracer, KindName(req.kind), id,
                 req.kind == Kind::kCommit ? "" : w.shapes()[req.shape].name);
  const fmmsw::QueryOptions opts = Options(w, req.kind);
  if (req.kind == Kind::kCommit) {
    out.result = fmmsw::RunGuarded(ec, opts.limits, [&] {
      Database::Transaction txn = [&] {
        SpanScope span(&tracer, "begin", id);
        return db.Begin(&ec);
      }();
      for (const auto& [name, rows] : delta) {
        SpanScope span(&tracer, "append", id, name);
        txn.Append(name, rows);
      }
      SpanScope span(&tracer, "swap", id);
      txn.Commit();
    });
    return out;
  }
  const Shape& s = w.shapes()[req.shape];
  fmmsw::Snapshot snap;
  {
    SpanScope span(&tracer, "pin", id);
    snap = db.snapshot(&ec);
  }
  if (req.kind == Kind::kPlan) {
    // Database::PlanWidths: check the atoms, key the width cache by the
    // binding's version digest, compute the widths.
    fmmsw::WidthReport report;
    out.result = fmmsw::RunGuarded(ec, opts.limits, [&] {
      fmmsw::OmegaSubwOptions wopts;
      {
        SpanScope span(&tracer, "digest", id);
        for (const std::string& atom : s.atoms) {
          if (snap.Find(atom) == nullptr) {
            throw fmmsw::QueryAbort(fmmsw::ExecStatus::kInvalidArgument,
                                    "no relation named '" + atom + "'");
          }
        }
        wopts.stats_digest = snap.BindingDigest(s.atoms);
      }
      SpanScope span(&tracer, "widths", id);
      report = fmmsw::ComputeWidths(s.h, PlanOmega(), wopts, &ec);
    });
    if (out.result.ok()) out.answer.widths = WidthValues(report);
    return out;
  }
  // Database::Query*: bind, admit, then Evaluate*WithRecovery: validate
  // and walk the ladder.
  QueryInput in;
  {
    SpanScope span(&tracer, "bind", id);
    out.result = snap.Bind(s.atoms, &in);
  }
  if (!out.result.ok()) return out;
  fmmsw::AdmissionController::Ticket ticket;
  {
    SpanScope span(&tracer, "admit", id);
    out.result = db.admission().Admit(opts.klass, opts.limits, ec, &ticket);
  }
  if (!out.result.ok()) return out;
  {
    SpanScope span(&tracer, "validate", id);
    out.result = fmmsw::ValidateQuery(s.h, in);
  }
  if (!out.result.ok()) return out;
  TracedLadder ladder(tracer, id);
  bool truth = false;
  int64_t count = 0;
  Relation& rows = out.rows;
  switch (req.kind) {
    case Kind::kBool:
      BooleanRungs(s.h, in, &truth, heavy_dim, &ladder);
      break;
    case Kind::kCount:
      CountRungs(s.h, in, &count, &ladder);
      break;
    default:
      ladder.Add("wcoj", [&s, &in, &rows](ExecContext& e) {
        rows = fmmsw::WcojJoin(s.h, in, s.h.vertices(), nullptr, &e);
      });
      break;
  }
  {
    SpanScope span(&tracer, "ladder", id);
    out.result =
        fmmsw::RunWithRecovery(ec, opts.limits, opts.retry, ladder.rungs());
  }
  if (out.result.ok()) {
    out.answer.truth = truth;
    out.answer.count = count;
  }
  return out;
}

}  // namespace svcbench
