#include "trace.h"

#include <chrono>
#include <cstdio>

namespace svcbench {

namespace {

/// ExecStats field names, in Counter order.
const char* const kCounterNames[kNumCounters] = {
    "index_build_ns",   "index_build_rows",   "sort_ns",
    "sort_rows",        "partition_calls",    "join_output_tuples",
    "fused_probe_tuples", "fused_emit_tuples", "wcoj_runs",
    "wcoj_steal_claims", "mm_products",       "mm_base_calls",
    "mm_bitsliced_calls", "mm_pack_ns",       "lp_solves",
    "lp_pivots",        "width_cache_hits",   "width_cache_evictions",
    "retries"};

}  // namespace

Counters ReadCounters(const fmmsw::ExecStats& s) {
  Counters c{};
  c[kIndexBuildNs] = s.index_build_ns.load();
  c[kIndexBuildRows] = s.index_build_rows.load();
  c[kSortNs] = s.sort_ns.load();
  c[kSortRows] = s.sort_rows.load();
  c[kPartitionCalls] = s.partition_calls.load();
  c[kJoinOutputTuples] = s.join_output_tuples.load();
  c[kFusedProbeTuples] = s.fused_probe_tuples.load();
  c[kFusedEmitTuples] = s.fused_emit_tuples.load();
  c[kWcojRuns] = s.wcoj_runs.load();
  c[kWcojStealClaims] = s.wcoj_steal_claims.load();
  c[kMmProducts] = s.mm_products.load();
  c[kMmBaseCalls] = s.mm_base_calls.load();
  c[kMmBitslicedCalls] = s.mm_bitsliced_calls.load();
  c[kMmPackNs] = s.mm_pack_ns.load();
  c[kLpSolves] = s.lp_solves.load();
  c[kLpPivots] = s.lp_pivots.load();
  c[kWidthCacheHits] = s.width_cache_hits.load();
  c[kWidthCacheEvictions] = s.width_cache_evictions.load();
  c[kRetries] = s.retries.load();
  return c;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Open(std::string name, std::string label, int64_t request) {
  Span span;
  span.name = std::move(name);
  span.label = std::move(label);
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.delta = ReadCounters(stats_);  // start values until Close
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::Close(int id, bool aborted) {
  Span& span = spans_[id];
  span.end_ns = NowNs();
  const Counters now = ReadCounters(stats_);
  for (int c = 0; c < kNumCounters; ++c) span.delta[c] = now[c] - span.delta[c];
  span.aborted = aborted;
  open_.pop_back();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"label\":\"%s\","
                 "\"request\":%lld,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"aborted\":%s,"
                 "\"delta\":{",
                 i, s.name.c_str(), s.label.c_str(),
                 static_cast<long long>(s.request),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.aborted ? "true" : "false");
    for (int c = 0; c < kNumCounters; ++c) {
      std::fprintf(f, "%s\"%s\":%lld", c == 0 ? "" : ",", kCounterNames[c],
                   static_cast<long long>(s.delta[c]));
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace svcbench
