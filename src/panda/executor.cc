#include "panda/executor.h"

#include <cmath>

#include "core/exec_context.h"
#include "engine/triangle.h"
#include "hypergraph/hypergraph.h"
#include "relation/degree.h"
#include "relation/flat_index.h"
#include "relation/ops.h"
#include "util/check.h"

namespace fmmsw {

namespace {

/// Packed (given, total) term key — the masks are 32-bit, so the pair is
/// exactly one flat-index key.
uint64_t Key(VarSet given, VarSet total) {
  return (static_cast<uint64_t>(given.mask()) << 32) |
         (given | total).mask();
}

/// Tables currently associated with conditional terms. Several tables can
/// share a key (e.g. the three Q_l tables of Figure 1 all sit on h(XYZ)).
/// Keys are interned through the flat index into dense slots (was a
/// std::map over std::pair keys). Stored tables are pinned for the
/// lifetime of the map — the sort-order cache keys on their buffers.
class TableMap {
 public:
  void Add(VarSet given, VarSet total, Relation table) {
    const int slot = keys_.Intern(Key(given, total));
    if (slot == static_cast<int>(tables_.size())) tables_.emplace_back();
    tables_[slot].push_back(std::move(table));
  }
  /// Last table registered for the key (the freshest derivation).
  const Relation* Find(VarSet given, VarSet total) const {
    const int slot = keys_.Find(Key(given, total));
    if (slot < 0 || tables_[slot].empty()) return nullptr;
    return &tables_[slot].back();
  }
  Relation Pop(VarSet given, VarSet total) {
    const int slot = keys_.Find(Key(given, total));
    FMMSW_CHECK(slot >= 0 && !tables_[slot].empty());
    Relation out = std::move(tables_[slot].back());
    tables_[slot].pop_back();
    return out;
  }
  const std::vector<Relation>* All(VarSet given, VarSet total) const {
    const int slot = keys_.Find(Key(given, total));
    return slot < 0 ? nullptr : &tables_[slot];
  }

 private:
  FlatInterner keys_;
  std::vector<std::vector<Relation>> tables_;
};

/// Finds an input relation with exactly the given schema.
const Relation* AtomWithSchema(const Hypergraph& h, const QueryInput& db,
                               VarSet schema) {
  for (size_t e = 0; e < h.edges().size(); ++e) {
    if (h.edges()[e] == schema) return &db.relations[e];
  }
  return nullptr;
}

}  // namespace

bool ExecuteProofSequence(const Hypergraph& h, const QueryInput& db,
                          const OmegaShannonInequality& ineq,
                          const ProofSequence& seq, int64_t threshold,
                          MmKernel kernel, PandaStats* stats,
                          ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  // Tables live in the TableMap for the whole execution, so repeated
  // decompositions of the same table can reuse its grouping sort order
  // through the context's arena (the order depends on (table, X, Y) but
  // not on the threshold).
  ExecContext::SortOrderScope sort_scope(ec);
  TableMap tables;
  // RHS terms start as the input atoms (Theorem E.10's initial
  // association). Unconditional terms must match an atom schema.
  for (const CondTerm& t : ineq.rhs) {
    const Relation* atom = AtomWithSchema(h, db, t.x | t.y);
    FMMSW_CHECK(atom != nullptr &&
                "RHS term does not correspond to an input atom");
    tables.Add(t.x, t.x | t.y, *atom);
  }

  for (const ProofStep& s : seq.steps) {
    // One poll per proof step: each step is at least a whole relational
    // operator, the executor's natural morsel.
    ec.guard().Poll(FaultSite::kPanda);
    switch (s.kind) {
      case ProofStepKind::kDecomposition: {
        // h(c,x,y): partition the table on deg(y | c x) at the threshold.
        const Relation* t = tables.Find(s.c, s.c | s.x | s.y);
        FMMSW_CHECK(t != nullptr);
        auto part = PartitionByDegree(*t, s.y, s.c | s.x, threshold, &ec);
        if (stats != nullptr) ++stats->partitions;
        tables.Add(s.c, s.c | s.x, std::move(part.heavy));
        tables.Add(s.c | s.x, s.c | s.x | s.y, std::move(part.light));
        break;
      }
      case ProofStepKind::kComposition: {
        const Relation* a = tables.Find(s.c, s.c | s.x);
        const Relation* b = tables.Find(s.c | s.x, s.c | s.x | s.y);
        FMMSW_CHECK(a != nullptr && b != nullptr);
        // The composed table is the join; but compositions consuming a
        // *heavy projection* table must instead join the light table's
        // counterpart with the other input — Figure 1 composes
        // h(XZ) + h(Y|XZ), where h(XZ) is the original atom T. Both cases
        // are the same Join call.
        Relation joined = Join(*a, *b, {}, &ec);
        if (stats != nullptr) ++stats->joins;
        tables.Add(s.c, s.c | s.x | s.y, std::move(joined));
        break;
      }
      case ProofStepKind::kMonotonicity: {
        const Relation* t = tables.Find(s.c, s.c | s.x | s.y);
        FMMSW_CHECK(t != nullptr);
        tables.Add(s.c, s.c | s.x, Project(*t, s.c | s.x, &ec));
        break;
      }
      case ProofStepKind::kSubmodularity: {
        // Re-conditioning only: the same tuples witness the weaker bound
        // h(y | c z) <= h(y | c).
        const Relation* t = tables.Find(s.c, s.c | s.y);
        FMMSW_CHECK(t != nullptr);
        tables.Add(s.c | s.z, s.c | s.z | s.y, *t);
        break;
      }
    }
  }

  // ---- Terminal checks. Plain LHS tables: any table on h(U) whose join
  // with all atoms is non-empty answers true (the omega-query-plan
  // semijoin of Appendix E.6). The per-atom filters run as one fused
  // single-pass SemijoinAll.
  for (const PlainLhsTerm& t : ineq.plain) {
    const auto* all = tables.All(VarSet::Empty(), t.u);
    if (all == nullptr) continue;
    std::vector<const Relation*> filters;
    for (size_t e = 0; e < h.edges().size(); ++e) {
      if (t.u.ContainsAll(h.edges()[e])) {
        filters.push_back(&db.relations[e]);
      }
    }
    for (const Relation& p : *all) {
      ec.guard().Poll(FaultSite::kPanda);
      if (stats != nullptr) ++stats->plain_tables;
      if (!SemijoinAll(p, filters, &ec).empty()) return true;
    }
  }

  // ---- Terminal MM groups: heavy unary tables on h(x), h(y), h(z);
  // matrices come from the atoms spanning (x,y) and (y,z); the result is
  // checked against the atom spanning (x,z).
  for (const MmLhsTerm& t : ineq.mm) {
    ec.guard().Poll(FaultSite::kPanda);
    FMMSW_CHECK(t.g.empty() &&
                "executor scope: group-by-free MM groups (Figure 1 class)");
    const Relation* rxy = AtomWithSchema(h, db, t.x | t.y);
    const Relation* ryz = AtomWithSchema(h, db, t.y | t.z);
    const Relation* rxz = AtomWithSchema(h, db, t.x | t.z);
    FMMSW_CHECK(rxy != nullptr && ryz != nullptr && rxz != nullptr &&
                "executor scope: MM group must align with binary atoms");
    // A dimension with a zero coefficient (e.g. zeta = 0 at omega = 2) has
    // no heavy table — its values stay unrestricted.
    Relation all_x = Project(*rxy, t.x, &ec);
    Relation all_y = Project(*rxy, t.y, &ec);
    Relation all_z = Project(*ryz, t.z, &ec);
    const Relation* hx = tables.Find(VarSet::Empty(), t.x);
    const Relation* hy = tables.Find(VarSet::Empty(), t.y);
    const Relation* hz = tables.Find(VarSet::Empty(), t.z);
    if (hx == nullptr) hx = &all_x;
    if (hy == nullptr) hy = &all_y;
    if (hz == nullptr) hz = &all_z;
    if (stats != nullptr) ++stats->mm_executed;
    if (HeavyTriangleCore(*rxy, *ryz, *rxz, t.x.First(), t.y.First(),
                          t.z.First(), *hx, *hy, *hz, kernel, nullptr, ec)) {
      return true;
    }
  }
  return false;
}

bool PandaTriangleBoolean(const QueryInput& db, double omega, MmKernel kernel,
                          PandaStats* stats, ExecContext* ctx) {
  const double n = static_cast<double>(db.TotalSize());
  if (n == 0) return false;
  const int64_t threshold =
      DegreeThreshold(n, (omega - 1.0) / (omega + 1.0));
  // Snap omega to a small rational for the symbolic side.
  const Rational omega_q(static_cast<int64_t>(std::llround(omega * 1000000)),
                         1000000);
  OmegaShannonInequality ineq = TriangleInequality(omega_q);
  ProofSequence seq = TriangleProofSequence(omega_q);
  FMMSW_CHECK(VerifyProofSequence(ineq, seq, omega_q));
  return ExecuteProofSequence(Hypergraph::Triangle(), db, ineq, seq,
                              threshold, kernel, stats, ctx);
}

}  // namespace fmmsw
