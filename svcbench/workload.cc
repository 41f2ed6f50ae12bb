#include "workload.h"

#include <algorithm>
#include <cmath>

#include "engine/wcoj.h"
#include "relation/generators.h"
#include "util/random.h"

namespace svcbench {

using fmmsw::Database;
using fmmsw::ExecContext;
using fmmsw::Hypergraph;
using fmmsw::QueryInput;
using fmmsw::Relation;
using fmmsw::Rng;
using fmmsw::Value;
using fmmsw::VarSet;

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kBool: return "bool";
    case Kind::kCount: return "count";
    case Kind::kJoin: return "join";
    case Kind::kPlan: return "plan";
    case Kind::kCommit: return "commit";
  }
  return "unknown";
}

uint64_t RowsDigest(const Relation& r) {
  uint64_t h = 0xcbf29ce484222325ull ^ static_cast<uint64_t>(r.size());
  const size_t cells = r.size() * static_cast<size_t>(r.arity());
  const Value* data = r.arity() == 0 ? nullptr : r.Row(0);
  for (size_t i = 0; i < cells; ++i) {
    h ^= static_cast<uint32_t>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string WidthValues(const fmmsw::WidthReport& r) {
  return "rho*=" + r.rho_star.ToString() + " fhtw=" + r.fhtw.ToString() +
         " subw=" + r.subw.ToString() +
         " w-subw=[" + r.omega_subw_lower.ToString() + "," +
         r.omega_subw_upper.ToString() + "]" +
         (r.omega_subw_exact ? " exact" : "") +
         " mm_terms=" + std::to_string(r.num_mm_terms);
}

fmmsw::Rational PlanOmega() { return fmmsw::Rational(2371552, 1000000); }

namespace {

fmmsw::QueryLimits MakeLimits(int64_t deadline_ms, int64_t budget_mib) {
  fmmsw::QueryLimits limits;
  limits.deadline_ms = deadline_ms;
  limits.memory_budget_bytes = budget_mib << 20;
  return limits;
}

/// splitmix64: decorrelates the per-round and per-delta generator seeds
/// derived from the workload seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A seeded permutation of [0, domain) for each of `vars` variables.
std::vector<std::vector<Value>> Relabeling(int vars, int64_t domain,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> labels(vars);
  for (std::vector<Value>& perm : labels) {
    perm.resize(domain);
    for (int64_t v = 0; v < domain; ++v) perm[v] = static_cast<Value>(v);
    for (int64_t k = domain - 1; k > 0; --k) {
      std::swap(perm[k], perm[rng.Uniform(0, k)]);
    }
  }
  return labels;
}

/// Catalog name of the relation bound to an edge: its variables.
std::string EdgeName(VarSet e) {
  std::string name = "e";
  for (int v : e.Members()) name += std::to_string(v);
  return name;
}

Shape MakeShape(const std::string& name, Hypergraph h,
                const std::string& prefix = "") {
  Shape s{name, std::move(h), {}};
  for (VarSet e : s.h.edges()) s.atoms.push_back(prefix + EdgeName(e));
  return s;
}

/// The i-th request of a stream made of rounds of `pattern`, each round
/// in its own seeded order, so every round holds the same mix.
Request Shuffled(const std::vector<Request>& pattern, uint64_t seed,
                 int64_t i) {
  const int64_t size = static_cast<int64_t>(pattern.size());
  std::vector<int> order(pattern.size());
  for (int k = 0; k < size; ++k) order[k] = k;
  Rng rng(Mix(seed ^ Mix(static_cast<uint64_t>(i / size))));
  for (int k = size - 1; k > 0; --k) {
    std::swap(order[k], order[rng.Uniform(0, k)]);
  }
  return pattern[order[i % size]];
}

void Load(Database& db, ExecContext& ec, Delta rels) {
  Database::Transaction txn = db.Begin(&ec);
  for (auto& [name, rel] : rels) txn.Replace(name, std::move(rel));
  txn.Commit();
}

QueryInput BindOrDie(const Database& db, const Shape& s) {
  QueryInput in;
  const fmmsw::ExecResult r = db.snapshot().Bind(s.atoms, &in);
  FMMSW_CHECK(r.ok() && "workload shape names a missing relation");
  return in;
}

std::string Mismatch(const Shape& s, const Request& req, const std::string& got,
                     const std::string& want) {
  return std::string(KindName(req.kind)) + " " + s.name + ": got " + got +
         ", want " + want;
}

// ---------------------------------------------------------------------------

/// Triangle queries on bench_triangle's heavy-everywhere, triangle-free
/// instance: every value has degree ~sqrt(N) and no triangle closes (Z is
/// even in S and odd in T), so every algorithm does its full work and the
/// first ladder rung wins every request.
class DenseTriangle : public Workload {
 public:
  DenseTriangle(uint64_t seed, bool smoke)
      : seed_(seed), draws_(smoke ? 3000 : 60000) {}

  void Setup(ExecContext& ec) override {
    ExecContext oec(ec.threads());
    const int64_t d = static_cast<int64_t>(std::sqrt(double(draws_)));
    // One fixed instance, relabeled per seed (X, Y and Z each by its own
    // permutation), as in skew_shapes: every seed has the same degrees.
    Rng rng(kInstanceSeed);
    const std::vector<std::vector<Value>> label = Relabeling(3, d, Mix(seed_));
    const Relation raw_r = fmmsw::UniformRelation(VarSet{0, 1}, draws_, d, &rng);
    const Relation raw_s = fmmsw::UniformRelation(VarSet{1, 2}, draws_, d, &rng);
    const Relation raw_t = fmmsw::UniformRelation(VarSet{0, 2}, draws_, d, &rng);
    Relation r(VarSet{0, 1}), s(VarSet{1, 2}), t(VarSet{0, 2});
    for (size_t i = 0; i < raw_r.size(); ++i) {
      r.Add({label[0][raw_r.Row(i)[0]], label[1][raw_r.Row(i)[1]]});
    }
    for (size_t i = 0; i < raw_s.size(); ++i) {
      s.Add({label[1][raw_s.Row(i)[0]], 2 * label[2][raw_s.Row(i)[1]]});
    }
    for (size_t i = 0; i < raw_t.size(); ++i) {
      t.Add({label[0][raw_t.Row(i)[0]], 2 * label[2][raw_t.Row(i)[1]] + 1});
    }
    n_ = static_cast<int64_t>(r.size() + s.size() + t.size());
    shapes_ = {MakeShape("triangle", Hypergraph::Triangle())};
    Load(db_, oec, {{"e01", std::move(r)}, {"e12", std::move(s)},
                    {"e02", std::move(t)}});
  }

  std::vector<Request> Warmup() const override {
    return {{Kind::kBool, 0}, {Kind::kCount, 0}, {Kind::kJoin, 0}};
  }

  Request At(int64_t i) const override { return Shuffled(Round(), seed_, i); }

  int64_t RoundSize() const override {
    return static_cast<int64_t>(Round().size());
  }

  std::string Check(const Request& req, const Answer& a) override {
    if (a.truth || a.count != 0) {
      return Mismatch(shapes_[0], req, "a triangle", "none (triangle-free)");
    }
    return "";
  }

  std::string Finish(ExecContext&) override { return ""; }

  std::string Describe() const override {
    return "N=" + std::to_string(n_) +
           " (3 relations over a sqrt(N) domain); round of 1 bool, "
           "4 count, 1 join";
  }

  fmmsw::QueryLimits Limits() const override { return MakeLimits(10000, 256); }

 private:
  static const std::vector<Request>& Round() {
    static const std::vector<Request> kRound = {
        {Kind::kBool, 0},  {Kind::kCount, 0}, {Kind::kCount, 0},
        {Kind::kCount, 0}, {Kind::kCount, 0}, {Kind::kJoin, 0}};
    return kRound;
  }

  static constexpr uint64_t kInstanceSeed = 0xd7a1;

  const uint64_t seed_;
  const int64_t draws_;
  int64_t n_ = 0;
};

// ---------------------------------------------------------------------------

/// One Zipf catalog (a relation per edge schema) bound by five query
/// shapes, served by a mix of plan, Boolean, Count and Join requests.
class SkewShapes : public Workload {
 public:
  SkewShapes(uint64_t seed, bool smoke)
      : seed_(seed), rows_(smoke ? 400 : 8000), domain_(smoke ? 200 : 2000) {}

  void Setup(ExecContext& ec) override {
    ExecContext oec(ec.threads());
    shapes_ = {MakeShape("triangle", Hypergraph::Triangle()),
               MakeShape("4-cycle", Hypergraph::Cycle(4)),
               MakeShape("pyramid-3", Hypergraph::Pyramid(3)),
               MakeShape("4-clique", Hypergraph::Clique(4)),
               MakeShape("double-triangle", Hypergraph::DoubleTriangle())};
    std::vector<VarSet> schemas;
    for (const Shape& s : shapes_) {
      for (VarSet e : s.h.edges()) {
        if (std::find(schemas.begin(), schemas.end(), e) == schemas.end()) {
          schemas.push_back(e);
        }
      }
    }
    // One fixed Zipf instance, relabeled per seed: every seed gets the
    // same degree structure (which decides the plans, rungs and answer
    // sizes) under different values, so runs with different seeds
    // measure the same work.
    Rng rng(kInstanceSeed);
    const std::vector<std::vector<Value>> labels =
        Relabeling(4, domain_, Mix(seed_));
    Delta rels;
    n_ = 0;
    for (VarSet e : schemas) {
      const Relation zipf =
          fmmsw::ZipfRelation(e, rows_, domain_, kAlpha, &rng);
      Relation rel(e);
      std::vector<Value> row(zipf.arity());
      for (size_t i = 0; i < zipf.size(); ++i) {
        for (int c = 0; c < zipf.arity(); ++c) {
          row[c] = labels[zipf.vars()[c]][zipf.Row(i)[c]];
        }
        rel.Add(row);
      }
      n_ += static_cast<int64_t>(rel.size());
      rels.emplace_back(EdgeName(e), std::move(rel));
    }
    Load(db_, oec, std::move(rels));
    counts_.clear();
    digests_.clear();
    widths_.assign(shapes_.size(), "");
    for (const Shape& s : shapes_) {
      const QueryInput in = BindOrDie(db_, s);
      counts_.push_back(fmmsw::WcojCount(s.h, in, &oec));
      const Relation join =
          fmmsw::WcojJoin(s.h, in, s.h.vertices(), nullptr, &oec);
      FMMSW_CHECK(static_cast<int64_t>(join.size()) == counts_.back());
      digests_.push_back(RowsDigest(join));
    }
  }

  std::vector<Request> Warmup() const override { return Round(); }

  Request At(int64_t i) const override { return Shuffled(Round(), seed_, i); }

  int64_t RoundSize() const override {
    return static_cast<int64_t>(Round().size());
  }

  std::string Check(const Request& req, const Answer& a) override {
    const Shape& s = shapes_[req.shape];
    const int64_t want = counts_[req.shape];
    switch (req.kind) {
      case Kind::kBool:
        if (a.truth != (want > 0)) {
          return Mismatch(s, req, a.truth ? "true" : "false",
                          want > 0 ? "true" : "false");
        }
        return "";
      case Kind::kCount:
      case Kind::kJoin:
        if (a.count != want ||
            (req.kind == Kind::kJoin && a.digest != digests_[req.shape])) {
          return Mismatch(s, req, std::to_string(a.count) + " rows",
                          std::to_string(want) + " rows (WCOJ oracle)");
        }
        return "";
      case Kind::kPlan:
        // Repeated shapes must plan identically: the first plan (made in
        // the warm-up) is the reference.
        if (widths_[req.shape].empty()) widths_[req.shape] = a.widths;
        if (a.widths != widths_[req.shape]) {
          return Mismatch(s, req, a.widths, widths_[req.shape]);
        }
        return "";
      case Kind::kCommit:
        break;
    }
    return "unexpected commit request";
  }

  std::string Finish(ExecContext&) override { return ""; }

  std::string Describe() const override {
    return "N=" + std::to_string(n_) + " (7 Zipf(" + std::to_string(kAlpha) +
           ") relations, " + std::to_string(rows_) + " draws over domain " +
           std::to_string(domain_) +
           ", bound by 5 shapes); round of 1 plan, 1 bool, 1 count, 1 join "
           "per shape";
  }

  /// The budget is ~80x the input and holds the largest join result
  /// (double-triangle); the elimination rung exceeds it within tens of
  /// milliseconds.
  fmmsw::QueryLimits Limits() const override { return MakeLimits(10000, 32); }

 private:
  static constexpr double kAlpha = 1.2;
  static constexpr uint64_t kInstanceSeed = 0x5a1f;

  static const std::vector<Request>& Round() {
    static const std::vector<Request> kRound = [] {
      std::vector<Request> round;
      for (int s = 0; s < 5; ++s) {
        for (Kind k : {Kind::kPlan, Kind::kBool, Kind::kCount, Kind::kJoin}) {
          round.push_back({k, s});
        }
      }
      return round;
    }();
    return kRound;
  }

  const uint64_t seed_;
  const int64_t rows_;
  const int64_t domain_;
  int64_t n_ = 0;
  std::vector<int64_t> counts_;
  std::vector<uint64_t> digests_;
  std::vector<std::string> widths_;
};

// ---------------------------------------------------------------------------

/// Writes beside reads on a 7-relation triangle + 4-cycle catalog: each
/// cycle appends 0.1% to every relation in one commit, re-plans both
/// shapes on the new snapshot and issues light reads. The triangle is
/// read by Join, not Count: the seed's triangle Count multiplies
/// domain-square matrices, which on this sparse catalog would be the
/// whole run (dense_triangle and skew_shapes measure that path). The
/// triangle relations stay triangle-free, as in dense_triangle (Z even in
/// tri.e12, odd in tri.e02), so a triangle Boolean does the same full
/// work on every seed instead of stopping at a seed-dependent first
/// witness.
class IngestReplan : public Workload {
 public:
  IngestReplan(uint64_t seed, bool smoke)
      : seed_(seed),
        rows_(smoke ? 2000 : 50000),
        domain_(smoke ? 1000 : 20000) {}

  void Setup(ExecContext& ec) override {
    ExecContext oec(ec.threads());
    shapes_ = {MakeShape("triangle", Hypergraph::Triangle(), "tri."),
               MakeShape("4-cycle", Hypergraph::Cycle(4), "c4.")};
    Load(db_, oec, Base());
    commits_ = 0;
    size_.assign(shapes_.size(), 0);
    fresh_.assign(shapes_.size(), true);
    widths_.assign(shapes_.size(), "");
  }

  std::vector<Request> Warmup() const override {
    std::vector<Request> cycle = Cycle();
    cycle.erase(cycle.begin());  // no commit: the warm-up leaves the data
    return cycle;
  }

  Request At(int64_t i) const override {
    return Cycle()[i % RoundSize()];
  }

  int64_t RoundSize() const override {
    return static_cast<int64_t>(Cycle().size());
  }

  Delta NextDelta() override { return DeltaRows(commits_++); }

  std::string Check(const Request& req, const Answer& a) override {
    if (req.kind == Kind::kCommit) {
      fresh_.assign(shapes_.size(), true);
      return "";
    }
    const Shape& s = shapes_[req.shape];
    const int64_t size = size_[req.shape];
    switch (req.kind) {
      case Kind::kCount:
      case Kind::kJoin:
        // The first read of an epoch sets the epoch's size; append-only
        // data can never shrink it. Later reads of the epoch agree.
        if (fresh_[req.shape] ? a.count < size : a.count != size) {
          return Mismatch(s, req, std::to_string(a.count) + " rows",
                          (fresh_[req.shape] ? ">= " : "") +
                              std::to_string(size) + " rows");
        }
        size_[req.shape] = a.count;
        fresh_[req.shape] = false;
        return "";
      case Kind::kBool:  // follows a count or join of the same epoch
        if (fresh_[req.shape] || a.truth != (size > 0)) {
          return Mismatch(s, req, a.truth ? "true" : "false",
                          std::to_string(size) + " rows > 0");
        }
        return "";
      case Kind::kPlan:
        // Widths depend on the query shape, never on the data.
        if (widths_[req.shape].empty()) widths_[req.shape] = a.widths;
        if (a.widths != widths_[req.shape]) {
          return Mismatch(s, req, a.widths, widths_[req.shape]);
        }
        return "";
      case Kind::kCommit:
        break;
    }
    return "";
  }

  std::string Finish(ExecContext& ec) override {
    // The final epoch against an input rebuilt from the same base rows
    // and deltas without the catalog.
    Delta rebuilt = Base();
    for (int64_t k = 0; k < commits_; ++k) {
      const Delta delta = DeltaRows(k);
      for (size_t r = 0; r < rebuilt.size(); ++r) {
        const Relation& d = delta[r].second;
        if (!d.empty()) rebuilt[r].second.AddRows(d.Row(0), d.size());
      }
    }
    for (auto& [name, rel] : rebuilt) rel.SortAndDedupe();
    const fmmsw::Snapshot snap = db_.snapshot();
    for (const Shape& s : shapes_) {
      QueryInput in;
      for (const std::string& atom : s.atoms) {
        for (const auto& [name, rel] : rebuilt) {
          if (name == atom) in.relations.push_back(rel);
        }
      }
      const int64_t want = fmmsw::WcojCount(s.h, in, &ec);
      Relation rows;
      const fmmsw::ExecResult r =
          db_.QueryJoin(snap, s.h, s.atoms, s.h.vertices(), &rows, {}, &ec);
      if (!r.ok() || static_cast<int64_t>(rows.size()) != want) {
        return "final epoch " + std::to_string(snap.epoch()) + " join " +
               s.name + ": got " + std::to_string(rows.size()) + " rows (" +
               fmmsw::StatusString(r.status) + "), rebuilt input has " +
               std::to_string(want);
      }
    }
    return "";
  }

  std::string Describe() const override {
    return "N=" + std::to_string(7 * rows_) +
           " at start (7 uniform relations of " + std::to_string(rows_) +
           " rows over domain " + std::to_string(domain_) +
           "); cycle of 1 commit (+" + std::to_string(rows_ / kDeltaDivisor) +
           " rows per relation), 6 plan, 3 count, 1 join, 3 bool";
  }

  fmmsw::QueryLimits Limits() const override { return MakeLimits(10000, 64); }

 private:
  /// Each commit appends 0.1% of the starting size to every relation. The
  /// commit's cost is the copy-on-write of the whole relation either way;
  /// at 1% the catalog grew 2.5x within a 30 s run, doubling the read
  /// latencies as it went and at a rate set by the service's own speed.
  static constexpr int64_t kDeltaDivisor = 1000;
  static constexpr const char* kNames[7] = {"tri.e01", "tri.e12", "tri.e02",
                                            "c4.e01",  "c4.e12",  "c4.e23",
                                            "c4.e03"};

  /// A commit, then every read planned first: the first plan of each
  /// shape on the new epoch misses the width cache, later ones hit. The
  /// requests fall into five latency groups: plans that hit (and the
  /// triangle's miss) < the Join < the commit < Booleans and Counts < the
  /// 4-cycle's miss. The mix (6, 1, 1, 6, 1) puts the median in the middle
  /// of the commits and the 90th percentile inside the Booleans and
  /// Counts, away from the edge between two groups, where a quantile
  /// would jump with small shifts.
  static const std::vector<Request>& Cycle() {
    static const std::vector<Request> kCycle = {
        {Kind::kCommit, 0}, {Kind::kPlan, 1}, {Kind::kCount, 1},
        {Kind::kPlan, 0},   {Kind::kJoin, 0}, {Kind::kPlan, 0},
        {Kind::kBool, 0},   {Kind::kPlan, 1}, {Kind::kCount, 1},
        {Kind::kPlan, 0},   {Kind::kBool, 0}, {Kind::kPlan, 1},
        {Kind::kCount, 1},  {Kind::kPlan, 0}, {Kind::kBool, 0}};
    return kCycle;
  }

  Delta Relations(int64_t rows, uint64_t seed) const {
    const VarSet schemas[7] = {VarSet{0, 1}, VarSet{1, 2}, VarSet{0, 2},
                               VarSet{0, 1}, VarSet{1, 2}, VarSet{2, 3},
                               VarSet{0, 3}};
    Rng rng(seed);
    Delta rels;
    for (int r = 0; r < 7; ++r) {
      Relation rel = fmmsw::UniformRelation(schemas[r], rows, domain_, &rng);
      if (r == 1 || r == 2) {  // tri.e12, tri.e02: Z is column 1
        Relation parity(schemas[r]);
        for (size_t i = 0; i < rel.size(); ++i) {
          parity.Add({rel.Row(i)[0], 2 * rel.Row(i)[1] + (r == 2 ? 1 : 0)});
        }
        rel = std::move(parity);
      }
      rels.emplace_back(kNames[r], std::move(rel));
    }
    return rels;
  }

  Delta Base() const { return Relations(rows_, Mix(seed_)); }

  Delta DeltaRows(int64_t k) const {
    return Relations(rows_ / kDeltaDivisor,
                     Mix(seed_ ^ Mix(static_cast<uint64_t>(k) + 1)));
  }

  const uint64_t seed_;
  const int64_t rows_;
  const int64_t domain_;
  int64_t commits_ = 0;
  std::vector<int64_t> size_;   ///< rows of each shape's join this epoch
  std::vector<bool> fresh_;     ///< no read of the shape yet this epoch
  std::vector<std::string> widths_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke) {
  if (name == "dense_triangle") {
    return std::make_unique<DenseTriangle>(seed, smoke);
  }
  if (name == "skew_shapes") return std::make_unique<SkewShapes>(seed, smoke);
  if (name == "ingest_replan") {
    return std::make_unique<IngestReplan>(seed, smoke);
  }
  return nullptr;
}

}  // namespace svcbench
