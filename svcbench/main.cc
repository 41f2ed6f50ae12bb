// Closed-loop service benchmark: one client thread, zero think time,
// issuing a workload's request stream against the Database service API
// on one ExecContext, checking every answer.
//
//   svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--threads <n>] [--smoke] [--trace-out <file>]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then measures the stream for --seconds and prints the end-to-end
// metrics, each the median over windows of the measured phase. --trace 1 measures the stream untraced for half of --seconds,
// sets up again and replays the same requests with a span around every
// layer call, checks that both runs gave the same answers, and prints
// the per-layer metrics. The last line of output is one JSON object.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client.h"
#include "trace.h"
#include "width/width_cache.h"
#include "workload.h"

namespace svcbench {
namespace {

using fmmsw::ExecContext;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 0;
  bool smoke = false;
  std::string trace_out;
};

/// Workloads get set up this many times per untraced run; setup_s is the
/// median.
constexpr int kSetups = 5;

/// The layer spans of each request type (kind and shape) must cover
/// this share of its requests' wall time; the rest is the requests' own
/// glue. The check is per type, not per request: a single preemption in
/// the microseconds of glue of a sub-millisecond request would fail it.
constexpr double kMinSpanCoverage = 0.9;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// The machine's CPU time counters from /proc/stat ("cpu" line: user,
/// nice, system, idle, iowait, irq, softirq, steal); empty if unreadable.
std::vector<int64_t> MachineCpuTicks() {
  std::vector<int64_t> ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  long long v[8];
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks.assign(v, v + 8);
  }
  std::fclose(f);
  return ticks;
}

/// Share of the machine's CPU time a hypervisor took away (steal) between
/// two MachineCpuTicks readings, or -1 if unknown. Wall-clock figures of
/// a run with a few percent of steal read 20-40% worse.
double StealShare(const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
  if (a.size() != 8 || b.size() != 8) return -1;
  int64_t total = 0;
  for (int i = 0; i < 8; ++i) total += b[i] - a[i];
  return total <= 0 ? -1 : double(b[7] - a[7]) / double(total);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Quantile `q` of `v` by linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Everything that makes a run incorrect: wrong answers, failed final
/// checks, traced/untraced disagreement.
struct Errors {
  std::vector<std::string> list;
  void Add(const std::string& e) {
    if (list.size() < 20) std::fprintf(stderr, "error: %s\n", e.c_str());
    list.push_back(e);
  }
};

struct Service {
  std::unique_ptr<ExecContext> ec;
  std::unique_ptr<Workload> w;
};

/// Generates the inputs, loads the catalog, computes the oracles and
/// runs the warm-up requests, from a cold width cache.
Service SetUp(const Args& args, Errors* errors) {
  fmmsw::WidthCache::Global().Clear();
  Service svc;
  svc.ec = std::make_unique<ExecContext>(args.threads);
  svc.w = MakeWorkload(args.workload, args.seed, args.smoke);
  svc.w->Setup(*svc.ec);
  for (const Request& req : svc.w->Warmup()) {
    Outcome out = Issue(*svc.w, req, *svc.ec, {});
    Settle(&out);
    const std::string err =
        out.result.ok() ? svc.w->Check(req, out.answer)
                        : fmmsw::StatusString(out.result.status);
    if (!err.empty()) errors->Add("warm-up " + std::string(KindName(req.kind)) +
                                  ": " + err);
  }
  return svc;
}

struct Sample {
  Kind kind;
  double ms;
  bool ok;
};

/// A stretch of the measured phase made of whole rounds, so every window
/// holds the workload's mix.
struct Window {
  size_t begin = 0, end = 0;  ///< samples [begin, end)
  double wall_s = 0;
  double cpu_s = 0;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<Outcome> outcomes;
  std::vector<Window> windows;
  int64_t failed = 0;
  double wall_s = 0;  ///< measured phase, loop included
  double cpu_s = 0;
  double busy_ms = 0;  ///< sum of request latencies
  double steal = -1;   ///< StealShare over the phase
};

/// The measured phase is cut into at most this many windows; the
/// end-to-end figures are medians over the windows, so a host slowdown
/// that covers less than half of a run barely moves them.
constexpr int kWindows = 9;

/// A window holds at least this many requests, so its p90 has at least
/// ten samples beyond it.
constexpr size_t kMinWindowRequests = 100;

/// Issues the stream from its start until `seconds` pass or `max_requests`
/// were issued, stopping only between rounds. With a tracer, requests go
/// through the traced client.
Phase RunStream(Service& svc, double seconds, int64_t max_requests,
                Tracer* tracer, int64_t* heavy_dim, Errors* errors) {
  Phase p;
  Workload& w = *svc.w;
  const int64_t round = w.RoundSize();
  const double window_s = seconds / kWindows;
  const double cpu0 = CpuSeconds();
  const std::vector<int64_t> ticks0 = MachineCpuTicks();
  const int64_t t0 = NowNs();
  Window open;
  int64_t open_ns = t0;
  double open_cpu = cpu0;
  const auto close_window = [&] {
    const int64_t now = NowNs();
    const double cpu = CpuSeconds();
    open.end = p.samples.size();
    open.wall_s = Seconds(now - open_ns);
    open.cpu_s = cpu - open_cpu;
    if (!p.windows.empty() &&
        (open.wall_s < window_s || open.end - open.begin < kMinWindowRequests)) {
      // A tail too short to be a window joins the window before it.
      Window& last = p.windows.back();
      last.end = open.end;
      last.wall_s += open.wall_s;
      last.cpu_s += open.cpu_s;
    } else if (open.end > open.begin) {
      p.windows.push_back(open);
    }
    open = Window{open.end, open.end, 0, 0};
    open_ns = now;
    open_cpu = cpu;
  };
  for (int64_t i = 0; i < max_requests; ++i) {
    if (i % round == 0) {
      if (Seconds(NowNs() - t0) >= seconds) break;
      if (Seconds(NowNs() - open_ns) >= window_s &&
          p.samples.size() - open.begin >= kMinWindowRequests) {
        close_window();
      }
    }
    const Request req = w.At(i);
    const Delta delta = req.kind == Kind::kCommit ? w.NextDelta() : Delta{};
    const int64_t start = NowNs();
    Outcome out =
        tracer == nullptr
            ? Issue(w, req, *svc.ec, delta)
            : IssueTraced(w, req, *svc.ec, delta, *tracer, i, heavy_dim);
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    Settle(&out);
    bool ok = out.result.ok();
    if (ok) {
      const std::string err = w.Check(req, out.answer);
      if (!err.empty()) {
        errors->Add("request " + std::to_string(i) + ": " + err);
        ok = false;
      }
    } else {
      std::fprintf(stderr, "request %lld (%s) failed: %s: %s\n",
                   static_cast<long long>(i), KindName(req.kind),
                   fmmsw::StatusString(out.result.status),
                   out.result.message.c_str());
    }
    if (!ok) ++p.failed;
    p.busy_ms += ms;
    p.samples.push_back({req.kind, ms, ok});
    p.outcomes.push_back(std::move(out));
  }
  close_window();
  p.wall_s = Seconds(NowNs() - t0);
  p.cpu_s = CpuSeconds() - cpu0;
  p.steal = StealShare(ticks0, MachineCpuTicks());
  const std::string err = w.Finish(*svc.ec);
  if (!err.empty()) errors->Add(err);
  return p;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Describe(const Args& args, const Workload& w) {
  std::printf("workload %s: %s\n", args.workload.c_str(),
              w.Describe().c_str());
  std::printf("limits per request: deadline_ms=%lld memory_budget_mib=%lld\n",
              static_cast<long long>(w.Limits().deadline_ms),
              static_cast<long long>(w.Limits().memory_budget_bytes >> 20));
}

void PrintResult(const Errors& errors, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              errors.list.empty() ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

int RunUntraced(const Args& args) {
  Errors errors;
  std::vector<double> setups;
  Service svc;
  for (int r = 0; r < (args.smoke ? 1 : kSetups); ++r) {
    svc = Service{};  // free the previous catalog before building the next
    const int64_t t0 = NowNs();
    svc = SetUp(args, &errors);
    setups.push_back(Seconds(NowNs() - t0));
  }
  Describe(args, *svc.w);
  const Phase p = RunStream(svc, args.seconds,
                            std::numeric_limits<int64_t>::max(), nullptr,
                            nullptr, &errors);
  const int64_t attempted = static_cast<int64_t>(p.samples.size());

  std::vector<double> all;
  std::map<Kind, std::vector<double>> by_kind;
  for (const Sample& s : p.samples) {
    all.push_back(s.ms);
    by_kind[s.kind].push_back(s.ms);
  }
  std::printf("requests: %lld attempted, %lld failed, failed_frac %.6g, "
              "measured %.3f s, host steal %.4f\n",
              static_cast<long long>(attempted),
              static_cast<long long>(p.failed),
              attempted == 0 ? 0.0 : double(p.failed) / double(attempted),
              p.wall_s, p.steal);
  std::printf("setup_s: %s\n", [&] {
    std::string s;
    for (double v : setups) s += std::to_string(v) + " ";
    return s + "(median reported)";
  }().c_str());
  for (const auto& [kind, v] : by_kind) {
    std::printf("%s_p50_ms %.4f  %s_p90_ms %.4f  (n=%zu)\n", KindName(kind),
                Quantile(v, 0.5), KindName(kind), Quantile(v, 0.9), v.size());
  }
  std::printf("query_p50_ms / query_p90_ms over n=%zu requests\n", all.size());

  // The windowed figures: each window's value, then the median over the
  // windows.
  std::map<std::string, std::vector<double>> windowed;
  for (const Window& win : p.windows) {
    std::vector<double> lat;
    std::map<Kind, std::vector<double>> lat_by_kind;
    int64_t done = 0;
    for (size_t i = win.begin; i < win.end; ++i) {
      lat.push_back(p.samples[i].ms);
      lat_by_kind[p.samples[i].kind].push_back(p.samples[i].ms);
      done += p.samples[i].ok;
    }
    windowed["query_p50_ms"].push_back(Quantile(lat, 0.5));
    windowed["query_p90_ms"].push_back(Quantile(lat, 0.9));
    windowed["queries_per_s"].push_back(double(done) / win.wall_s);
    windowed["bool_p50_ms"].push_back(Quantile(lat_by_kind[Kind::kBool], 0.5));
    windowed["count_p50_ms"].push_back(Quantile(lat_by_kind[Kind::kCount], 0.5));
    windowed["join_p50_ms"].push_back(Quantile(lat_by_kind[Kind::kJoin], 0.5));
    windowed["cpu_ms_per_query"].push_back(
        done == 0 ? 0.0 : win.cpu_s * 1e3 / double(done));
  }
  std::printf("%zu windows; end-to-end figures are the medians of:\n",
              p.windows.size());
  for (const auto& [name, values] : windowed) {
    std::printf("  %-17s", name.c_str());
    for (double v : values) std::printf(" %.4g", v);
    std::printf("\n");
  }
  const auto median = [&](const char* name) {
    return Quantile(windowed[name], 0.5);
  };

  std::vector<Metric> m = {
      {"query_p50_ms", median("query_p50_ms"), "ms"},
      {"query_p90_ms", median("query_p90_ms"), "ms"},
      {"queries_per_s", median("queries_per_s"), "1/s"},
      {"bool_p50_ms", median("bool_p50_ms"), "ms"},
      {"count_p50_ms", median("count_p50_ms"), "ms"},
      {"join_p50_ms", median("join_p50_ms"), "ms"},
      {"cpu_ms_per_query", median("cpu_ms_per_query"), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"setup_s", Quantile(setups, 0.5), "s"},
  };
  PrintResult(errors, attempted, p.failed, m);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

const char* const kRungs[] = {"mm-strassen",  "mm-boolean", "gemm-blocked",
                              "mm-bitsliced", "elimination", "best-td",
                              "wcoj"};

/// Per-layer totals over a traced phase's spans.
struct Layers {
  int64_t requests = 0, ladder_requests = 0, plans = 0, commits = 0;
  std::map<std::string, int64_t> ns;     ///< by span name (rungs split below)
  std::map<std::string, int64_t> count;  ///< spans by name
  std::map<std::string, int64_t> rung_won_ns, rung_aborted_ns;
  int64_t attempts = 0, wins = 0, glue_ns = 0;
  Counters all{}, ladder{}, plan{};
  /// Request wall and layer-span time by request type ("kind shape").
  std::map<std::string, std::pair<int64_t, int64_t>> coverage;
  double request_min_coverage = 1.0;

  /// The least share of a request type's wall time its layers cover.
  double MinCoverage() const {
    double min = 1.0;
    for (const auto& [type, ns] : coverage) {
      if (ns.first > 0) min = std::min(min, double(ns.second) / double(ns.first));
    }
    return min;
  }
};

Layers Aggregate(const std::vector<Span>& spans) {
  Layers l;
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.Ns();
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name.rfind("rung:", 0) == 0) {
      const std::string rung = s.name.substr(5);
      ++l.attempts;
      if (s.aborted) {
        l.rung_aborted_ns[rung] += s.Ns();
      } else {
        ++l.wins;
        l.rung_won_ns[rung] += s.Ns();
      }
      continue;
    }
    l.ns[s.name] += s.Ns();
    ++l.count[s.name];
    if (s.parent >= 0) continue;
    // A request root: its self time is glue, its children the layers.
    ++l.requests;
    const int64_t self = s.Ns() - child_ns[i];
    auto& type = l.coverage[s.name + " " + s.label];
    type.first += s.Ns();
    type.second += child_ns[i];
    if (s.Ns() > 0) {
      l.request_min_coverage = std::min(l.request_min_coverage,
                                        double(child_ns[i]) / double(s.Ns()));
    }
    for (int c = 0; c < kNumCounters; ++c) l.all[c] += s.delta[c];
    if (s.name == "plan") {
      ++l.plans;
      for (int c = 0; c < kNumCounters; ++c) l.plan[c] += s.delta[c];
    } else if (s.name == "commit") {
      ++l.commits;
    } else {
      ++l.ladder_requests;
      l.glue_ns += self;
      for (int c = 0; c < kNumCounters; ++c) l.ladder[c] += s.delta[c];
    }
  }
  return l;
}

double Per(double total, int64_t n) { return n == 0 ? 0.0 : total / double(n); }

int RunTraced(const Args& args) {
  Errors errors;
  Service svc = SetUp(args, &errors);
  Describe(args, *svc.w);
  const Phase base = RunStream(svc, args.seconds / 2,
                               std::numeric_limits<int64_t>::max(), nullptr,
                               nullptr, &errors);
  svc = Service{};
  svc = SetUp(args, &errors);
  Tracer tracer(svc.ec->stats());
  int64_t heavy_dim = 0;
  const int64_t n = static_cast<int64_t>(base.samples.size());
  const Phase traced =
      RunStream(svc, std::numeric_limits<double>::infinity(), n, &tracer,
                &heavy_dim, &errors);

  // The traced replay must answer exactly as the service did.
  for (int64_t i = 0; i < n && i < int64_t(traced.outcomes.size()); ++i) {
    const Outcome& a = base.outcomes[i];
    const Outcome& b = traced.outcomes[i];
    if (a.result.status != b.result.status || !(a.answer == b.answer)) {
      errors.Add("traced request " + std::to_string(i) +
                 " answered differently from the untraced run");
    }
  }
  const Layers l = Aggregate(tracer.spans());
  std::printf("traced %lld requests; least span coverage of one request %.4f\n",
              static_cast<long long>(l.requests), l.request_min_coverage);
  for (const auto& [type, ns] : l.coverage) {
    std::printf("  %-24s wall %10.3f ms, layer spans cover %.4f\n",
                type.c_str(), double(ns.first) * 1e-6,
                double(ns.second) / double(std::max<int64_t>(1, ns.first)));
  }
  // At the smoke test's tiny N the requests are all glue; the check is
  // about the real sizes.
  if (args.workload != "ingest_replan" && !args.smoke &&
      l.MinCoverage() < kMinSpanCoverage) {
    errors.Add("layer spans cover only " + std::to_string(l.MinCoverage()) +
               " of a request type's wall time");
  }
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    errors.Add("cannot write spans to " + args.trace_out);
  }

  const auto mean_us = [&](const char* name) {
    const auto it = l.count.find(name);
    if (it == l.count.end()) return 0.0;
    return double(l.ns.at(name)) * 1e-3 / double(it->second);
  };
  const auto total_ns = [&](const char* name) {
    const auto it = l.ns.find(name);
    return it == l.ns.end() ? 0.0 : double(it->second);
  };
  const int64_t lr = l.ladder_requests;
  double wasted_ns = 0;
  for (const auto& [rung, ns] : l.rung_aborted_ns) wasted_ns += double(ns);
  std::vector<Metric> m = {
      {"core.bind_us", mean_us("bind"), "us"},
      {"core.admit_us", mean_us("admit"), "us"},
      {"core.validate_us", mean_us("validate"), "us"},
      {"core.glue_us", Per(double(l.glue_ns) * 1e-3, lr), "us"},
      {"core.ladder_attempts_per_query", Per(double(l.attempts), lr),
       "count/query"},
      {"core.first_rung_win_frac", Per(double(l.wins), l.attempts), "ratio"},
      {"core.wasted_rung_ms_per_query", Per(wasted_ns * 1e-6, lr), "ms/query"},
      {"core.retries_per_query", Per(double(l.ladder[kRetries]), lr),
       "count/query"},
      {"core.commit_stage_ms", Per(total_ns("append") * 1e-6, l.commits),
       "ms/commit"},
      {"core.commit_swap_ms", Per(total_ns("swap") * 1e-6, l.commits),
       "ms/commit"},
  };
  for (const char* rung : kRungs) {
    for (const auto* split : {&l.rung_won_ns, &l.rung_aborted_ns}) {
      const auto it = split->find(rung);
      const double ns = it == split->end() ? 0.0 : double(it->second);
      m.push_back({std::string("engine.rung_ms.") + rung +
                       (split == &l.rung_won_ns ? ".won" : ".aborted"),
                   Per(ns * 1e-6, lr), "ms/query"});
    }
  }
  const int64_t rq = l.requests;
  const Counters& a = l.all;
  const std::vector<Metric> rest = {
      {"engine.wcoj_runs_per_query", Per(double(l.ladder[kWcojRuns]), lr),
       "count/query"},
      {"engine.wcoj_steal_claims_per_query",
       Per(double(l.ladder[kWcojStealClaims]), lr), "count/query"},
      {"width.plan_ms", Per(total_ns("widths") * 1e-6, l.plans), "ms/plan"},
      {"width.cache_hit_frac", Per(double(l.plan[kWidthCacheHits]), l.plans),
       "ratio"},
      {"lp.solves_per_plan", Per(double(l.plan[kLpSolves]), l.plans),
       "count/plan"},
      {"lp.pivots_per_plan", Per(double(l.plan[kLpPivots]), l.plans),
       "count/plan"},
      {"width.cache_evictions", double(a[kWidthCacheEvictions]), "count"},
      {"relation.index_build_ms_per_query",
       Per(double(a[kIndexBuildNs]) * 1e-6, rq), "ms/query"},
      {"relation.index_build_rows_per_query", Per(double(a[kIndexBuildRows]), rq),
       "rows/query"},
      {"relation.sort_ms_per_query", Per(double(a[kSortNs]) * 1e-6, rq),
       "ms/query"},
      {"relation.sort_rows_per_query", Per(double(a[kSortRows]), rq),
       "rows/query"},
      {"relation.partition_calls_per_query", Per(double(a[kPartitionCalls]), rq),
       "count/query"},
      {"relation.join_output_tuples_per_query",
       Per(double(a[kJoinOutputTuples]), rq), "rows/query"},
      {"relation.fused_emit_frac",
       a[kFusedProbeTuples] == 0
           ? 0.0
           : double(a[kFusedEmitTuples]) / double(a[kFusedProbeTuples]),
       "ratio"},
      {"mm.pack_ms_per_query", Per(double(a[kMmPackNs]) * 1e-6, rq),
       "ms/query"},
      {"mm.products_per_query", Per(double(a[kMmProducts]), rq), "count/query"},
      {"mm.base_calls_per_query", Per(double(a[kMmBaseCalls]), rq),
       "count/query"},
      {"mm.bitsliced_calls_per_query", Per(double(a[kMmBitslicedCalls]), rq),
       "count/query"},
      {"mm.heavy_dim", double(heavy_dim), "count"},
      {"process.cpu_per_wall", base.cpu_s / base.wall_s, "ratio"},
      {"process.threads", double(svc.ec->threads()), "count"},
      {"mem.peak_tracked_mb",
       double(svc.ec->stats().mem_peak_bytes.load()) / double(1 << 20), "MiB"},
      {"trace.overhead_frac", traced.busy_ms / base.busy_ms - 1.0, "ratio"},
      {"trace.span_coverage_min", l.MinCoverage(), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  PrintResult(errors, int64_t(base.samples.size() + traced.samples.size()),
              base.failed + traced.failed, m);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--threads") {
      args->threads = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  if (args->threads <= 0) {
    args->threads = static_cast<int>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  // Serve large buffers from a heap that is never trimmed, as in a
  // long-running service whose heap has grown to its working set. With
  // glibc's defaults a request's big buffers come either fresh from mmap
  // (page-faulting every page) or recycled from the heap, depending on the
  // process's allocation history; on skew_shapes that swung the Boolean
  // p50 by 2x between runs of the same seed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  svcbench::Args args;
  if (!svcbench::ParseArgs(argc, argv, &args) ||
      svcbench::MakeWorkload(args.workload, 0, true) == nullptr) {
    std::fprintf(stderr,
                 "usage: svcbench --workload dense_triangle|skew_shapes|"
                 "ingest_replan --seed N --seconds S --trace 0|1 "
                 "[--threads N] [--smoke] [--trace-out FILE]\n");
    return 2;
  }
  std::printf("svcbench workload=%s seed=%llu seconds=%g trace=%d threads=%d "
              "smoke=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.threads,
              args.smoke ? 1 : 0);
  return args.trace ? svcbench::RunTraced(args) : svcbench::RunUntraced(args);
}
