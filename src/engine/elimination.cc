#include "engine/elimination.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/exec_context.h"
#include "engine/wcoj.h"
#include "mm/matrix.h"
#include "relation/ops.h"

namespace fmmsw {

void AddAtom(Hypergraph* hg, QueryInput* in, VarSet schema, RelationPtr rel,
             ExecContext* ctx) {
  const std::vector<VarSet>& edges = hg->edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i] == schema) {
      in->relations.Set(i, Intersect(in->relations[i], *rel, ctx));
      return;
    }
  }
  hg->AddEdge(schema);
  in->relations.push_back(std::move(rel));
}

namespace {

[[noreturn]] void Invalid(const std::string& message) {
  throw QueryAbort(ExecStatus::kInvalidArgument,
                   "ExecutePlan: " + message);
}

/// Execution state: the current hypergraph plus one relation per edge,
/// shared by pointer with the caller's input until a step replaces it.
struct State {
  Hypergraph hg;
  QueryInput in;
};

/// A hypergraph over `vertices` (indices and names of `h`) with no edges.
Hypergraph Edgeless(const Hypergraph& h, VarSet vertices) {
  return Hypergraph(h.num_vars(), h.names())
      .Eliminate(VarSet::Full(h.num_vars()) - vertices);
}

/// WCOJ over the sub-query of the state's edges `edges`, projected onto
/// `out`.
Relation JoinEdges(const State& s, const std::vector<int>& edges, VarSet out,
                   ExecContext* ec) {
  VarSet vars;
  for (int e : edges) vars = vars | s.hg.edges()[e];
  Hypergraph sub = Edgeless(s.hg, vars);
  QueryInput sub_in;
  for (int e : edges) {
    AddAtom(&sub, &sub_in, s.hg.edges()[e], s.in.relations.ptr(e), ec);
  }
  return WcojJoin(sub, sub_in, out, nullptr, ec);
}

std::vector<int> IncidentEdges(const State& s, VarSet block) {
  std::vector<int> incident = s.hg.IncidentEdges(block);
  if (incident.empty()) Invalid("block has no incident edge");
  return incident;
}

/// Joins the incident relations with WCOJ and projects the block away
/// (the "for-loops" elimination). Returns the relation over N(block).
Relation EliminateForLoop(const State& s, VarSet block,
                          EliminationStats* stats, ExecContext* ec) {
  Relation result =
      JoinEdges(s, IncidentEdges(s, block), s.hg.N(block), ec);
  if (stats != nullptr) {
    ++stats->forloop_steps;
    stats->intermediate_tuples += static_cast<int64_t>(result.size());
  }
  return result;
}

/// Dense index assignment for composite keys.
class KeyIndex {
 public:
  int Intern(const std::vector<Value>& key) {
    auto [it, inserted] = map_.emplace(key, static_cast<int>(map_.size()));
    (void)inserted;
    return it->second;
  }
  int Find(const std::vector<Value>& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? -1 : it->second;
  }
  int size() const { return static_cast<int>(map_.size()); }
  /// Keys in index order.
  std::vector<std::vector<Value>> Reverse() const {
    std::vector<std::vector<Value>> out(map_.size());
    for (const auto& [k, v] : map_) out[v] = k;
    return out;
  }

 private:
  // contracts: allow(no-node-map) reference MM-step evaluator; keys are
  // variable-length Value tuples with no packed-key form yet (ROADMAP).
  std::map<std::vector<Value>, int> map_;
};

std::vector<Value> ExtractKey(const Relation& r, size_t row,
                              const std::vector<int>& cols) {
  std::vector<Value> key(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) key[i] = r.Row(row)[cols[i]];
  return key;
}

std::vector<int> ColsFor(const Relation& r, VarSet vars) {
  std::vector<int> cols;
  for (int v : (vars & r.schema()).Members()) cols.push_back(r.ColumnOf(v));
  return cols;
}

/// Eliminates `block` via the MM option `mm` (Appendix E.6): the incident
/// relations are covered by an A side (schema inside x|g|z) and a B side
/// (schema inside y|g|z); M1 = join of the A side over VA, M2 = join of
/// the B side over VB; for every value of g' = VA cap VB \ z, multiply the
/// x'-by-z and z-by-y' Boolean matrices (x' = VA \ VB, y' = VB \ VA) and
/// keep the non-zero output cells as the new relation over
/// x|y|g = N(block).
Relation EliminateMm(const State& s, VarSet block, const MmExpr& mm,
                     MmKernel kernel, EliminationStats* stats,
                     ExecContext* ec) {
  const VarSet a_side = mm.x | mm.g | block;
  const VarSet b_side = mm.y | mm.g | block;
  std::vector<int> a_edges, b_edges;
  VarSet va, vb;
  for (int e : IncidentEdges(s, block)) {
    const VarSet schema = s.hg.edges()[e];
    const bool on_a = a_side.ContainsAll(schema);
    const bool on_b = b_side.ContainsAll(schema);
    if (!on_a && !on_b) {
      Invalid("MM option covers incident edge " + schema.ToString() +
              " on neither side");
    }
    if (on_a) {
      a_edges.push_back(e);
      va = va | schema;
    }
    if (on_b) {
      b_edges.push_back(e);
      vb = vb | schema;
    }
  }
  if (!va.ContainsAll(block) || !vb.ContainsAll(block)) {
    Invalid("an MM side does not cover the block");
  }
  // x' = x + (g cap VA \ VB), y' = y + (g cap VB \ VA), g' = g cap VA cap VB.
  const VarSet x = va - vb, y = vb - va, g = (va & vb) - block;
  const Relation m1 = JoinEdges(s, a_edges, va, ec);
  const Relation m2 = JoinEdges(s, b_edges, vb, ec);

  // Group rows by G-key; within each group build matrices over x/z and z/y.
  const std::vector<int> m1_g = ColsFor(m1, g), m1_x = ColsFor(m1, x),
                         m1_z = ColsFor(m1, block);
  const std::vector<int> m2_g = ColsFor(m2, g), m2_y = ColsFor(m2, y),
                         m2_z = ColsFor(m2, block);
  // contracts: allow(no-node-map) reference MM-step evaluator; keys are
  // variable-length Value tuples with no packed-key form yet (ROADMAP).
  std::map<std::vector<Value>, std::pair<std::vector<size_t>,
                                         std::vector<size_t>>>
      groups;
  for (size_t r = 0; r < m1.size(); ++r) {
    groups[ExtractKey(m1, r, m1_g)].first.push_back(r);
  }
  for (size_t r = 0; r < m2.size(); ++r) {
    groups[ExtractKey(m2, r, m2_g)].second.push_back(r);
  }

  Relation result(x | y | g);
  // Output column i takes key position source[i].second of the x (0),
  // y (1) or g (2) key.
  const VarSet parts[3] = {x, y, g};
  std::vector<std::pair<int, int>> source;
  for (int v : result.vars()) {
    for (int p = 0; p < 3; ++p) {
      if (parts[p].Contains(v)) {
        source.emplace_back(p, (parts[p] & VarSet::Full(v)).size());
      }
    }
  }
  std::vector<Value> tuple(source.size());
  for (const auto& [gkey, rows] : groups) {
    if (rows.first.empty() || rows.second.empty()) continue;
    KeyIndex xs, ys, zs;
    for (size_t r : rows.first) {
      xs.Intern(ExtractKey(m1, r, m1_x));
      zs.Intern(ExtractKey(m1, r, m1_z));
    }
    for (size_t r : rows.second) {
      ys.Intern(ExtractKey(m2, r, m2_y));
      zs.Intern(ExtractKey(m2, r, m2_z));
    }
    if (stats != nullptr) {
      stats->mm_cells += static_cast<int64_t>(xs.size()) * zs.size() +
                         static_cast<int64_t>(zs.size()) * ys.size();
    }
    Bump(ExecContext::Resolve(ec).stats().mm_products);
    BitMatrix ma(xs.size(), zs.size()), mb(zs.size(), ys.size());
    for (size_t r : rows.first) {
      ma.Set(xs.Find(ExtractKey(m1, r, m1_x)),
             zs.Find(ExtractKey(m1, r, m1_z)));
    }
    for (size_t r : rows.second) {
      mb.Set(zs.Find(ExtractKey(m2, r, m2_z)),
             ys.Find(ExtractKey(m2, r, m2_y)));
    }
    const BitMatrix mc = BooleanProduct(ma, mb, kernel, ec);
    const auto xkeys = xs.Reverse(), ykeys = ys.Reverse();
    for (int i = 0; i < mc.rows(); ++i) {
      for (int j = 0; j < mc.cols(); ++j) {
        if (!mc.Get(i, j)) continue;
        const std::vector<Value>* keys[3] = {&xkeys[i], &ykeys[j], &gkey};
        for (size_t c = 0; c < source.size(); ++c) {
          tuple[c] = (*keys[source[c].first])[source[c].second];
        }
        result.Add(tuple);
      }
    }
  }
  result.SortAndDedupe(ec);
  if (stats != nullptr) {
    ++stats->mm_steps;
    stats->intermediate_tuples += static_cast<int64_t>(result.size());
  }
  return result;
}

/// Replaces the state by the one after eliminating `block`, whose
/// incident relations were folded into `result` over N(block): the
/// non-incident edges, then N(block), added to an edge-less hypergraph
/// over V \ block — edge for edge what `hg.Eliminate(block)` builds.
/// Returns false if `result` is empty (the query is false).
bool Advance(State* s, VarSet block, Relation result, ExecContext* ec) {
  if (result.empty()) return false;
  State next{Edgeless(s->hg, s->hg.vertices() - block), {}};
  for (size_t e = 0; e < s->hg.edges().size(); ++e) {
    const VarSet schema = s->hg.edges()[e];
    if (schema.Intersects(block)) continue;
    AddAtom(&next.hg, &next.in, schema, s->in.relations.ptr(e), ec);
  }
  const VarSet n = s->hg.N(block);
  if (!n.empty()) {
    AddAtom(&next.hg, &next.in, n,
            std::make_shared<const Relation>(std::move(result)), ec);
  }
  *s = std::move(next);
  return true;
}

/// Rejects a plan whose blocks do not partition the vertex set, or whose
/// MM step eliminates something other than its block.
void ValidatePlan(const Hypergraph& h, const EliminationPlan& plan) {
  VarSet eliminated;
  for (const PlanStep& step : plan.steps) {
    if (step.block.empty()) Invalid("empty block");
    if (!(h.vertices() - eliminated).ContainsAll(step.block)) {
      Invalid("block " + step.block.ToString() +
              " is not inside the remaining vertex set");
    }
    if (step.method == StepMethod::kMm && step.mm.z != step.block) {
      Invalid("MM step's z differs from its block");
    }
    eliminated = eliminated | step.block;
  }
  if (eliminated != h.vertices()) {
    Invalid("plan does not eliminate every vertex");
  }
}

}  // namespace

EliminationPlan ForLoopPlan(const Hypergraph& h,
                            const std::vector<int>* order) {
  EliminationPlan plan;
  std::vector<int> ord = order ? *order : h.vertices().Members();
  for (int v : ord) {
    plan.steps.push_back({VarSet::Singleton(v), StepMethod::kForLoop, {}});
  }
  return plan;
}

bool ExecutePlan(const Hypergraph& h, const QueryInput& db,
                 const EliminationPlan& plan, const EliminationOptions& opts,
                 EliminationStats* stats, ExecContext* ctx) {
  ExecContext& ec = ExecContext::Resolve(ctx);
  if (db.relations.size() != h.edges().size()) {
    Invalid(std::to_string(db.relations.size()) + " relations for " +
            std::to_string(h.edges().size()) + " hyperedges");
  }
  for (size_t e = 0; e < h.edges().size(); ++e) {
    if (db.relations[e].schema() != h.edges()[e]) {
      Invalid("relation " + std::to_string(e) + " does not match its edge");
    }
  }
  ValidatePlan(h, plan);
  State s{h, db};
  for (const PlanStep& step : plan.steps) {
    ec.guard().Poll(FaultSite::kOps);  // elimination steps are the plan's morsels
    for (const Relation& r : s.in.relations) {
      if (r.empty()) return false;
    }
    Relation result =
        step.method == StepMethod::kMm
            ? EliminateMm(s, step.block, step.mm, opts.kernel, stats, &ec)
            : EliminateForLoop(s, step.block, stats, &ec);
    if (!Advance(&s, step.block, std::move(result), &ec)) return false;
  }
  return true;
}

}  // namespace fmmsw
