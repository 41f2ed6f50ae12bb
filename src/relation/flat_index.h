#ifndef FMMSW_RELATION_FLAT_INDEX_H_
#define FMMSW_RELATION_FLAT_INDEX_H_

/// \file
/// Flat open-addressing hash structures for the relational operators.
///
/// The join kernels key rows on the shared-variable columns. A KeySpec
/// resolves those columns once per operator call (O(1) per row afterwards)
/// and packs the key values into a single uint64:
///   - 0 columns: constant key (cross products),
///   - 1 column:  the value itself (exact, the fast path),
///   - 2 columns: both values side by side (exact),
///   - 3+ columns: a mixed hash (NOT injective — callers must verify
///     candidate rows with RowKeysEqual).
/// FlatMultimap/FlatSet are linear-probing tables over such packed keys;
/// chains of equal-key rows are threaded through a `next` array, so a
/// build costs two flat allocations and no per-node heap traffic (compare
/// std::unordered_multimap, which allocates per entry and chases pointers
/// per probe).
///
/// Sharded parallel builds: the context-aware constructors of FlatMultimap
/// and FlatInterner (and ExistProbe, which wraps a FlatMultimap) take an
/// ExecContext and, above kShardedBuildMinRows with a multi-worker pool,
/// build the table in parallel. Workers first scan disjoint row ranges
/// into per-chunk buffers keyed by the top kShardBits bits of MixKey;
/// each shard then becomes its own open-addressing sub-table, written by
/// exactly one worker — disjoint slot regions, no locks. Because a packed
/// key's rows all land in one shard and chunks are concatenated in row
/// order, every equal-key chain is built by inserting rows in ascending
/// order with head prepending, i.e. chains stay in reverse row order
/// exactly like the serial build: First/Next results are bit-identical
/// for every thread count (differential-tested in exec_pipeline_test.cc).

#include <cstdint>
#include <string>
#include <vector>

#include "core/exec_status.h"
#include "relation/relation.h"
#include "util/varset.h"

namespace fmmsw {

class ExecContext;

/// Precomputed column permutation mapping key variables (in increasing
/// variable order) to columns of one relation.
class KeySpec {
 public:
  KeySpec() = default;
  KeySpec(const Relation& r, VarSet key_vars) {
    for (int v : key_vars.Members()) cols_.push_back(r.ColumnOf(v));
  }

  const std::vector<int>& cols() const { return cols_; }
  int arity() const { return static_cast<int>(cols_.size()); }
  /// True if KeyOf is injective, i.e. equal packed keys imply equal key
  /// values and no verification is needed.
  bool exact() const { return cols_.size() <= 2; }

  /// Packed 64-bit key of a row (see file comment).
  uint64_t KeyOf(const Value* row) const {
    switch (cols_.size()) {
      case 0:
        return 0;
      case 1:
        return static_cast<uint32_t>(row[cols_[0]]);
      case 2:
        return (static_cast<uint64_t>(static_cast<uint32_t>(row[cols_[0]]))
                << 32) |
               static_cast<uint32_t>(row[cols_[1]]);
      default: {
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (int c : cols_) {
          h ^= static_cast<uint32_t>(row[c]) + 0x9e3779b97f4a7c15ULL +
               (h << 6) + (h >> 2);
        }
        return h;
      }
    }
  }

 private:
  std::vector<int> cols_;
};

/// Column-wise equality of two rows' key values under their own specs.
inline bool RowKeysEqual(const Value* a, const KeySpec& sa, const Value* b,
                         const KeySpec& sb) {
  for (size_t i = 0; i < sa.cols().size(); ++i) {
    if (a[sa.cols()[i]] != b[sb.cols()[i]]) return false;
  }
  return true;
}

namespace flat_internal {

/// Finalizer spreading packed keys across the table (splitmix64 tail).
inline uint64_t MixKey(uint64_t k) {
  k ^= k >> 30;
  k *= 0xbf58476d1ce4e5b9ULL;
  k ^= k >> 27;
  k *= 0x94d049bb133111ebULL;
  k ^= k >> 31;
  return k;
}

/// Smallest power-of-two capacity holding `entries` at load factor <= 0.5.
/// Computed in 64 bits: a 32-bit `cap <<= 1` wraps to 0 once cap reaches
/// 2^31 (entries > 2^30), turning the loop into an infinite hang. Row ids
/// are int32_t, so entry counts beyond 2^30 are rejected outright — as a
/// kCapacityExceeded QueryAbort, which the guarded entry points
/// (RunGuarded, core/api.h Evaluate*WithRecovery) convert to a returned
/// status instead of killing the process over one oversized input.
inline uint32_t TableCapacity(size_t entries) {
  if (entries > (size_t{1} << 30)) {
    throw QueryAbort(ExecStatus::kCapacityExceeded,
                     "flat index capped at 2^30 entries (got " +
                         std::to_string(entries) + ")");
  }
  uint64_t cap = 8;
  while (cap < static_cast<uint64_t>(entries) * 2) cap <<= 1;
  return static_cast<uint32_t>(cap);
}

/// Shard fan-out of the parallel index builds (64 sub-tables, selected by
/// the top 6 bits of MixKey — independent of the low slot-index bits).
inline constexpr int kShardBits = 6;
/// Minimum rows before a context-aware build goes sharded: below this the
/// partition pass costs more than the serial scan it replaces.
inline constexpr size_t kShardedBuildMinRows = 8192;

}  // namespace flat_internal

/// Open-addressing multimap from packed key to the rows carrying it.
/// Rows with equal packed keys form a chain; iterate with
///   for (int32_t r = idx.First(key); r >= 0; r = idx.Next(r)) { ... }
///
/// Layout: with shard_bits_ == 0 (serial build) the table is one probe
/// region of mask_ + 1 slots. A sharded build splits the slot space into
/// 1 << kShardBits contiguous sub-tables; a key's shard is the top bits
/// of MixKey and probing wraps within the shard's own region. Lookup
/// results are identical under both layouts.
class FlatMultimap {
 public:
  /// Serial build (no context; kept for callers outside the pipeline).
  FlatMultimap(const Relation& r, const KeySpec& spec) {
    BuildSerial(r, spec);
  }

  /// Context-aware build: sharded across ctx's pool when the input is
  /// large enough, serial otherwise; records index-build stats either way
  /// (nullptr = the process-default context).
  FlatMultimap(const Relation& r, const KeySpec& spec, ExecContext* ctx);

  /// First row with the given packed key, or -1.
  int32_t First(uint64_t key) const {
    const uint64_t mix = flat_internal::MixKey(key);
    size_t base = 0;
    uint32_t m = mask_;
    if (shard_bits_ != 0) {
      const size_t s = mix >> (64 - shard_bits_);
      base = shard_off_[s];
      m = shard_mask_[s];
    }
    uint32_t i = static_cast<uint32_t>(mix) & m;
    while (true) {
      const int32_t head = slot_head_[base + i];
      if (head < 0) return -1;
      if (slot_key_[base + i] == key) return head;
      i = (i + 1) & m;
    }
  }

  /// Next row in the same-key chain, or -1.
  int32_t Next(int32_t row) const { return next_[row]; }

  /// True if the context-aware constructor took the sharded parallel path
  /// (exposed for tests and stats assertions).
  bool sharded() const { return shard_bits_ != 0; }

 private:
  void BuildSerial(const Relation& r, const KeySpec& spec) {
    const size_t n = r.size();
    const uint32_t cap = flat_internal::TableCapacity(n);
    mask_ = cap - 1;
    slot_key_.resize(cap);
    slot_head_.assign(cap, -1);
    next_.resize(n);
    if (spec.arity() == 1) {
      // Single-column fast path: no per-row dispatch on the key shape.
      const int col = spec.cols()[0];
      for (size_t row = 0; row < n; ++row) {
        Insert(static_cast<uint32_t>(r.Row(row)[col]),
               static_cast<int32_t>(row));
      }
    } else {
      for (size_t row = 0; row < n; ++row) {
        Insert(spec.KeyOf(r.Row(row)), static_cast<int32_t>(row));
      }
    }
  }

  void BuildSharded(const Relation& r, const KeySpec& spec, ExecContext& ec);

  void Insert(uint64_t key, int32_t row) {
    uint32_t i = static_cast<uint32_t>(flat_internal::MixKey(key)) & mask_;
    while (true) {
      if (slot_head_[i] < 0) {
        slot_key_[i] = key;
        next_[row] = -1;
        slot_head_[i] = row;
        return;
      }
      if (slot_key_[i] == key) {
        next_[row] = slot_head_[i];
        slot_head_[i] = row;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  int shard_bits_ = 0;
  uint32_t mask_ = 0;
  std::vector<uint32_t> shard_off_;   // per-shard region start
  std::vector<uint32_t> shard_mask_;  // per-shard region capacity - 1
  std::vector<uint64_t> slot_key_;
  std::vector<int32_t> slot_head_;  // -1 = empty slot
  std::vector<int32_t> next_;
};

/// Open-addressing set of packed keys (for on-the-fly dedup of narrow
/// outputs; only meaningful for exact KeySpecs).
///
/// Capacity contract: the constructor and Reserve presize for `expected`
/// entries at load factor <= 0.5, so a builder that knows its insert
/// count up front (the clique pair sets, Project's dedup set — both
/// Reserve the source row count, an upper bound on distinct keys) never
/// pays the insert-time Grow rehash. Grow remains as a safety net for
/// incremental callers that under-estimate; grow_rehashes() counts how
/// often it fired, so tests can assert presized builds never rehash.
class FlatSet {
 public:
  /// Presizes for `expected` entries (no Grow for up to that many
  /// distinct keys).
  explicit FlatSet(size_t expected = 0) {
    const uint32_t cap = flat_internal::TableCapacity(expected);
    mask_ = cap - 1;
    slot_key_.resize(cap);
    used_.assign(cap, 0);
  }

  /// Ensures capacity for `expected` total entries (existing + future),
  /// rehashing at most once — the bulk-builder alternative to paying
  /// O(log n) incremental Grows. Not counted by grow_rehashes(): this is
  /// the planned resize the counter exists to verify sufficient.
  void Reserve(size_t expected) {
    const uint32_t cap = flat_internal::TableCapacity(expected);
    if (cap <= used_.size()) return;
    Rehash(cap);
  }

  /// Inserts the key; returns true if it was absent.
  bool Insert(uint64_t key) {
    if (size_ * 2 >= used_.size()) {
      ++grow_rehashes_;
      Rehash(used_.size() * 2);
    }
    uint32_t i = static_cast<uint32_t>(flat_internal::MixKey(key)) & mask_;
    while (used_[i]) {
      if (slot_key_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    slot_key_[i] = key;
    ++size_;
    return true;
  }

  /// Membership test.
  bool Contains(uint64_t key) const {
    uint32_t i = static_cast<uint32_t>(flat_internal::MixKey(key)) & mask_;
    while (used_[i]) {
      if (slot_key_[i] == key) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  size_t size() const { return size_; }
  /// Slot count (power of two; exposed so tests can assert that presized
  /// builds never rehash).
  size_t capacity() const { return used_.size(); }
  /// Insert-time Grow rehashes performed (0 for a correctly presized
  /// build — the stats hook behind the presize-no-rehash contract).
  int64_t grow_rehashes() const { return grow_rehashes_; }

 private:
  void Rehash(size_t cap) {
    std::vector<uint64_t> old_keys = std::move(slot_key_);
    std::vector<uint8_t> old_used = std::move(used_);
    mask_ = static_cast<uint32_t>(cap) - 1;
    slot_key_.assign(cap, 0);
    used_.assign(cap, 0);
    size_ = 0;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i]) Insert(old_keys[i]);
    }
  }

  uint32_t mask_ = 0;
  size_t size_ = 0;
  int64_t grow_rehashes_ = 0;
  std::vector<uint64_t> slot_key_;
  std::vector<uint8_t> used_;
};

/// Open-addressing map from packed 64-bit key to a dense id assigned in
/// first-insertion order — the matrix-dimension interning pattern of the
/// MM engines and the PANDA executor (replaces std::unordered_map<Value,
/// int>: two flat arrays, no per-node allocation).
class FlatInterner {
 public:
  explicit FlatInterner(size_t expected = 0) {
    const uint32_t cap =
        flat_internal::TableCapacity(expected < 4 ? 4 : expected);
    mask_ = cap - 1;
    slot_key_.resize(cap);
    slot_id_.assign(cap, -1);
  }

  /// Bulk build: interns spec.KeyOf of every row of `r` in ascending row
  /// order, so ids equal the serial first-occurrence order for every
  /// thread count. With a multi-worker context and enough rows the build
  /// runs sharded on the pool; the result is then frozen — Find/size only
  /// (incremental Intern cannot grow the sharded layout).
  FlatInterner(const Relation& r, const KeySpec& spec, ExecContext* ctx);

  /// Id of the key, inserting it with the next dense id if absent. Only
  /// valid on incrementally built (non-sharded) interners.
  int Intern(uint64_t key) {
    FMMSW_DCHECK(shard_bits_ == 0 && "bulk sharded interner is frozen");
    if (static_cast<size_t>(size_) * 2 >= slot_id_.size()) Grow();
    uint32_t i = static_cast<uint32_t>(flat_internal::MixKey(key)) & mask_;
    while (slot_id_[i] >= 0) {
      if (slot_key_[i] == key) return slot_id_[i];
      i = (i + 1) & mask_;
    }
    slot_key_[i] = key;
    slot_id_[i] = size_;
    return size_++;
  }

  /// Id of the key, or -1 if absent.
  int Find(uint64_t key) const {
    const uint64_t mix = flat_internal::MixKey(key);
    size_t base = 0;
    uint32_t m = mask_;
    if (shard_bits_ != 0) {
      const size_t s = mix >> (64 - shard_bits_);
      base = shard_off_[s];
      m = shard_mask_[s];
    }
    uint32_t i = static_cast<uint32_t>(mix) & m;
    while (slot_id_[base + i] >= 0) {
      if (slot_key_[base + i] == key) return slot_id_[base + i];
      i = (i + 1) & m;
    }
    return -1;
  }

  /// Values-as-keys convenience (the common unary-dimension case).
  int InternValue(Value v) { return Intern(static_cast<uint32_t>(v)); }
  int FindValue(Value v) const { return Find(static_cast<uint32_t>(v)); }

  int size() const { return size_; }
  /// True if the bulk constructor took the sharded parallel path.
  bool sharded() const { return shard_bits_ != 0; }

 private:
  void BuildSharded(const Relation& r, const KeySpec& spec, ExecContext& ec);

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(slot_key_);
    std::vector<int32_t> old_ids = std::move(slot_id_);
    const uint32_t cap = static_cast<uint32_t>(old_ids.size()) * 2;
    mask_ = cap - 1;
    slot_key_.assign(cap, 0);
    slot_id_.assign(cap, -1);
    for (size_t i = 0; i < old_ids.size(); ++i) {
      if (old_ids[i] < 0) continue;
      uint32_t j =
          static_cast<uint32_t>(flat_internal::MixKey(old_keys[i])) & mask_;
      while (slot_id_[j] >= 0) j = (j + 1) & mask_;
      slot_key_[j] = old_keys[i];
      slot_id_[j] = old_ids[i];
    }
  }

  int shard_bits_ = 0;
  uint32_t mask_ = 0;
  int32_t size_ = 0;
  std::vector<uint32_t> shard_off_;   // per-shard region start
  std::vector<uint32_t> shard_mask_;  // per-shard region capacity - 1
  std::vector<uint64_t> slot_key_;
  std::vector<int32_t> slot_id_;  // -1 = empty slot
};

/// Existence-only probe against one relation: does any row of `b` agree
/// with a probe-side row on the variables the two schemas share? Builds
/// b's index once; Contains is O(1) per probe. This is the kernel behind
/// the fused join–semijoin paths (JoinOpts::exist_filter, SemijoinAll),
/// which filter candidate tuples *before* materializing them.
///
/// `probe_shape` only supplies the layout (schema/column map) of the rows
/// later passed to Contains; `b` must not be nullary (callers resolve
/// nullary relations as Boolean constants). The index build is
/// context-aware (sharded in parallel when worthwhile; see file comment).
class ExistProbe {
 public:
  ExistProbe(const Relation& probe_shape, const Relation& b,
             ExecContext* ctx = nullptr)
      : rel_(&b),
        probe_spec_(probe_shape, probe_shape.schema() & b.schema()),
        build_spec_(b, probe_shape.schema() & b.schema()),
        index_(b, build_spec_, ctx) {}

  bool Contains(const Value* row) const {
    int32_t r = index_.First(probe_spec_.KeyOf(row));
    if (build_spec_.exact() || r < 0) return r >= 0;
    for (; r >= 0; r = index_.Next(r)) {
      if (RowKeysEqual(row, probe_spec_, rel_->Row(r), build_spec_)) {
        return true;
      }
    }
    return false;
  }

 private:
  const Relation* rel_;
  KeySpec probe_spec_;
  KeySpec build_spec_;
  FlatMultimap index_;
};

}  // namespace fmmsw

#endif  // FMMSW_RELATION_FLAT_INDEX_H_
