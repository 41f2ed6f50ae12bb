#ifndef FMMSW_CORE_DATABASE_H_
#define FMMSW_CORE_DATABASE_H_

/// \file
/// Versioned catalog with snapshot-isolated queries (ROADMAP item 1:
/// "concurrent read queries over immutable relation snapshots with
/// copy-on-write updates").
///
/// A Database owns named relations as immutable versions
/// (`shared_ptr<const Relation>`), each stamped with the monotone epoch
/// of the commit that installed it and a content digest
/// (RelationStatsDigest). The whole catalog is one immutable
/// CatalogState published behind an annotated Mutex; readers pin a
/// Snapshot — a refcounted copy of the state pointer, O(1), no row
/// copies — and every query they run against it sees exactly that
/// epoch, no matter how many commits land meanwhile. Old versions stay
/// alive until the last snapshot (or binding) holding them drops;
/// nothing is ever mutated in place.
///
/// Writers stage through a Transaction: Replace/Append/Drop build fresh
/// relations off to the side (copy-on-write — untouched relations are
/// shared by pointer into the next state), polling the context's guard
/// at FaultSite::kOps morsel boundaries and charging staged bytes
/// through the memory plane. Commit() publishes all staged versions
/// with ONE atomic swap of the state pointer under the Mutex — before
/// the swap nothing is visible, after it everything is — so a
/// QueryAbort thrown from any staging or pre-swap poll leaves the
/// catalog bit-identical to the pre-transaction state, with
/// `mem_current_bytes` restored by the charge's RAII release. An
/// uncommitted Transaction rolls back on destruction.
///
/// Transactions serialize at the commit swap; staged versions are blind
/// writes (last committed writer wins per relation — there is no
/// optimistic read-set validation; see ROADMAP item 1 for what remains
/// above this layer).
///
/// Query{Boolean,Count,Join} / PlanWidths are the service entry points:
/// they bind a snapshot's pinned versions to a hypergraph's atoms
/// (zero-copy), pass through admission control, and walk the
/// Evaluate*WithRecovery degradation ladder. PlanWidths keys the
/// process WidthCache with the snapshot's binding digest, so a commit
/// that changes any bound relation can never serve a stale cached plan.
///
/// Stats: commits / rollbacks / snapshots_pinned / versions_retired on
/// the driving context (stats-coverage contract, core/exec_context.h).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/admission.h"
#include "core/api.h"
#include "core/exec_context.h"
#include "core/exec_status.h"
#include "core/recovery.h"
#include "hypergraph/hypergraph.h"
#include "relation/relation.h"
#include "util/rational.h"
#include "util/thread_safety.h"
#include "width/omega_subw.h"

namespace fmmsw {

/// One immutable, epoch-stamped version of a named relation.
struct RelationVersion {
  std::string name;
  RelationPtr rel;
  int64_t epoch = 0;    ///< epoch of the commit that installed this version
  uint64_t digest = 0;  ///< RelationStatsDigest(*rel), computed at staging
};

/// One immutable catalog version: the full name -> version map at one
/// epoch. Published as `shared_ptr<const CatalogState>` and never
/// mutated after the swap; entries are sorted by name (binary search).
struct CatalogState {
  int64_t epoch = 0;
  std::vector<RelationVersion> entries;

  /// The version of `name`, or nullptr if absent.
  const RelationVersion* Find(const std::string& name) const;
};

/// A pinned, consistent view of the whole catalog at one epoch.
/// Copyable and cheap (one shared_ptr); holding any Snapshot (or a
/// QueryInput bound from it) keeps every relation version it references
/// alive, so readers finish on their pinned epoch while commits stream
/// past. A default-constructed Snapshot is the empty catalog at epoch 0.
class Snapshot {
 public:
  Snapshot() = default;

  int64_t epoch() const { return state_ == nullptr ? 0 : state_->epoch; }
  size_t num_relations() const {
    return state_ == nullptr ? 0 : state_->entries.size();
  }
  /// Registered names in sorted order.
  std::vector<std::string> names() const;

  /// The pinned version of `name`, or nullptr if absent.
  const Relation* Find(const std::string& name) const;
  /// Shared handle to the pinned version (nullptr if absent) — share a
  /// version beyond the snapshot's lifetime without copying rows.
  RelationPtr Share(const std::string& name) const;
  /// Version digest of `name` (0 if absent).
  uint64_t VersionDigest(const std::string& name) const;

  /// Binds `atoms[i]` to hyperedge i: the binding shares the pinned
  /// versions by pointer (no row copies). kInvalidArgument if any name
  /// is not registered; the caller validates schema against the
  /// hypergraph via ValidateQuery (Query* and PlanWidths do both).
  ExecResult Bind(const std::vector<std::string>& atoms,
                  QueryInput* out) const;

  /// Combined version digest of the named relations, order-sensitive —
  /// the WidthCache key component that makes cached plans
  /// version-aware. kInvalidArgument names are folded as absent (0).
  uint64_t BindingDigest(const std::vector<std::string>& atoms) const;

 private:
  friend class Database;
  explicit Snapshot(std::shared_ptr<const CatalogState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const CatalogState> state_;
};

/// Service-level evaluation options: admission class, guardrail limits
/// and the recovery ladder walk, composed by Database::Query*.
struct QueryOptions {
  QueryClass klass = QueryClass::kSmallProbe;
  QueryLimits limits;
  RetryPolicy retry;
};

/// The versioned catalog. Thread-safe: any number of threads may pin
/// snapshots and run queries while writers stage and commit
/// transactions; the only shared mutable word is the state pointer,
/// swapped under `mu_`.
class Database {
 public:
  explicit Database(const AdmissionConfig& admission = {});
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Pins the current catalog version. O(1): copies the state pointer.
  Snapshot snapshot(ExecContext* ctx = nullptr) const FMMSW_EXCLUDES(mu_);
  /// Epoch of the latest committed state.
  int64_t epoch() const FMMSW_EXCLUDES(mu_);

  /// Staged catalog update. Build it with Begin(), stage versions with
  /// Replace/Append/Drop, then Commit() — or let it roll back. All
  /// staging runs on the Begin() context's driving thread and polls
  /// that context's guard at FaultSite::kOps, so guard limits and
  /// fault-plan ordinals cover ingest exactly like query execution: a
  /// QueryAbort out of any staging step (or the pre-swap commit poll)
  /// leaves the catalog untouched and the memory balance restored.
  /// Must not outlive its Database or ExecContext.
  class Transaction {
   public:
    Transaction(Transaction&& other) noexcept = default;
    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;
    Transaction& operator=(Transaction&&) = delete;
    /// Rolls back if neither Commit() nor Rollback() ran.
    ~Transaction();

    /// Stages `rows` (canonically sorted + deduped) as the next version
    /// of `name`; creates the relation if it is not registered.
    void Replace(const std::string& name, Relation rows);
    /// Copy-on-write append: stages a fresh version holding the current
    /// (staged or committed) rows of `name` plus `delta`'s rows. Equal
    /// to Replace(name, delta) when `name` is not registered. Throws
    /// QueryAbort(kInvalidArgument) on schema mismatch.
    void Append(const std::string& name, const Relation& delta);
    /// Stages removal of `name`. Throws QueryAbort(kInvalidArgument) if
    /// it is neither registered nor staged.
    void Drop(const std::string& name);

    /// Publishes every staged version in one atomic state swap (epoch =
    /// latest + 1). The transaction is consumed; staged bytes leave the
    /// transient memory balance (they are catalog-owned now).
    void Commit();
    /// Discards staged versions and releases their memory charge.
    void Rollback();
    /// True until Commit()/Rollback() consumes the transaction.
    bool active() const { return !done_; }
    /// Staged versions so far (test/observability probe).
    size_t staged_count() const { return staged_.size(); }

   private:
    friend class Database;
    Transaction(Database* db, std::shared_ptr<const CatalogState> base,
                ExecContext& ec);

    /// Current rows of `name` as this transaction sees them: staged
    /// version first, then the base snapshot. nullptr when absent
    /// (a staged drop is "absent").
    const Relation* View(const std::string& name) const;
    /// Installs (name -> version) in the staged set, last write wins.
    void Stage(const std::string& name, RelationPtr rel, uint64_t digest);

    Database* db_ = nullptr;
    std::shared_ptr<const CatalogState> base_;
    ExecContext* ec_ = nullptr;
    /// Staged versions in first-staged order; `rel == nullptr` = drop.
    std::vector<RelationVersion> staged_;
    /// Transient bytes held by staged versions; RAII-released on
    /// rollback/unwind, released on commit (data becomes catalog-owned).
    std::unique_ptr<MemCharge> charge_;
    bool done_ = false;
  };

  /// Opens a transaction against the current catalog version. `ctx`
  /// (nullptr = process default) supplies the guard polled during
  /// staging and the stats the commit/rollback counters land on.
  Transaction Begin(ExecContext* ctx = nullptr) FMMSW_EXCLUDES(mu_);

  /// \name Snapshot-isolated query entry points
  /// Bind the snapshot's pinned versions to `h`'s atoms by name
  /// (atoms[i] -> hyperedge i, zero-copy), pass admission control for
  /// `opts.klass`, then walk the recovery ladder
  /// (Evaluate*WithRecovery). The result is computed entirely against
  /// the pinned epoch: commits landing mid-query are invisible, and the
  /// answer is bit-identical to a direct Evaluate*WithRecovery call on a
  /// binding of the same versions.
  /// @{
  ExecResult QueryBoolean(const Snapshot& snap, const Hypergraph& h,
                          const std::vector<std::string>& atoms, bool* result,
                          const QueryOptions& opts = {},
                          ExecContext* ctx = nullptr,
                          RecoveryReport* report = nullptr) const;
  ExecResult QueryCount(const Snapshot& snap, const Hypergraph& h,
                        const std::vector<std::string>& atoms, int64_t* count,
                        const QueryOptions& opts = {},
                        ExecContext* ctx = nullptr,
                        RecoveryReport* report = nullptr) const;
  ExecResult QueryJoin(const Snapshot& snap, const Hypergraph& h,
                       const std::vector<std::string>& atoms,
                       VarSet output_vars, Relation* result,
                       const QueryOptions& opts = {},
                       ExecContext* ctx = nullptr,
                       RecoveryReport* report = nullptr) const;
  /// @}

  /// Width planning against a snapshot: binds and validates `atoms`
  /// like the Query* entry points (kInvalidArgument on an unknown name
  /// or a schema that disagrees with its hyperedge), then runs
  /// ComputeWidths with the WidthCache keyed by the snapshot's binding
  /// digest, so a commit to any bound relation invalidates the cached
  /// entry for new queries.
  ExecResult PlanWidths(const Snapshot& snap, const Hypergraph& h,
                        const std::vector<std::string>& atoms,
                        const Rational& omega, WidthReport* out,
                        OmegaSubwOptions opts = {},
                        ExecContext* ctx = nullptr) const;

  /// The admission gate fronting the Query* entry points (test probe).
  AdmissionController& admission() const { return admission_; }

 private:
  /// The atomic commit point: builds epoch+1 from the live state plus
  /// `staged` (moving the staged versions in) and swaps the state
  /// pointer, all under mu_. Returns the number of versions retired
  /// (replaced or dropped). Nothing in here can throw once entered.
  int64_t CommitStaged(std::vector<RelationVersion>* staged)
      FMMSW_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::shared_ptr<const CatalogState> state_ FMMSW_GUARDED_BY(mu_);
  mutable AdmissionController admission_;
};

}  // namespace fmmsw

#endif  // FMMSW_CORE_DATABASE_H_
