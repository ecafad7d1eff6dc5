// perfbench: one workload per invocation, checked before any number is
// reported (see NOTES.md for the workloads, metrics and steadiness notes).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-dir DIR]
//
// --trace 0 measures the end-to-end metrics: an untimed warm-up, then
// kTrials short trials of the untraced workload, each from its own set-up;
// every metric is the median over trials, and setup_s is the median over
// those set-ups and kSetupOnly more. --trace 1 measures the per-layer
// metrics: untraced trials (counts, the overhead baseline), traced trials
// (spans), the retry baseline where the workload has one, and the cost
// ladder; the spans go to DIR/NAME.trace.json. The last line of stdout is
// the JSON result; the exit code is nonzero if any check failed.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "harness.hpp"
#include "ladder.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Shares of --seconds: the untimed warm-up, and the trials after it.
constexpr double kWarmShare = 0.10;
constexpr double kTrialShare = 0.85;
constexpr int kTrials = 15;         // gated trials per run
constexpr int kSetupOnly = 40;      // extra set-ups timed for setup_s
constexpr int kUntracedTrials = 5;  // traced run: counts + overhead baseline
constexpr int kTracedTrials = 3;
constexpr int kBaselineTrials = 3;
constexpr std::size_t kSpansPerThread = std::size_t{1} << 18;
constexpr std::size_t kSpansWrittenPerThread = 5000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_dir;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Trial i's seed: a seeded stream, so the same --seed gives every trial
/// the same inputs.
std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t i) {
  mwllsc::util::SplitMix64 sm(seed * 0x100000001b3ULL + i);
  return sm.next();
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Accumulates attempted/failed over every trial of a run.
struct Totals {
  std::uint64_t attempted = 0;
  Verdict verdict;
  void add(const Trial& t) {
    attempted += t.attempted;
    verdict.merge(t.verdict);
  }
};

void print_result(const Totals& tot, const std::vector<Metric>& ms) {
  for (const auto& p : tot.verdict.problems) {
    std::printf("# CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tot.verdict.ok() ? "true" : "false",
              static_cast<unsigned long long>(tot.attempted),
              static_cast<unsigned long long>(tot.verdict.failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct TrialSummary {
  double ops_per_s, p50, p99;
  std::size_t samples;
};

TrialSummary summarize(Trial& t) {
  return {t.ops_per_s(), quantile(t.lat_ns, 0.50), quantile(t.lat_ns, 0.99),
          t.lat_ns.size()};
}

template <class W>
int run_gated(const Args& a) {
  const double trial_s = a.seconds * kTrialShare / kTrials;
  Totals tot;
  std::vector<double> ops, p50, p99, setup;
  std::size_t samples = 0;
  double shared_bytes = 0;

  Trial warm =
      run_trial<W>(trial_seed(a.seed, 0), a.seconds * kWarmShare, nullptr);
  tot.add(warm);
  setup.push_back(warm.setup_s);
  for (int i = 0; i < kTrials; ++i) {
    Trial t = run_trial<W>(trial_seed(a.seed, 1 + i), trial_s, nullptr);
    tot.add(t);
    setup.push_back(t.setup_s);
    shared_bytes = t.out.shared_bytes;
    const TrialSummary s = summarize(t);
    ops.push_back(s.ops_per_s);
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    samples += s.samples;
    std::printf("# trial %d: ops_per_s=%.0f op_p50_ns=%.0f op_p99_ns=%.0f "
                "samples=%zu setup_us=%.1f\n",
                i, s.ops_per_s, s.p50, s.p99, s.samples, t.setup_s * 1e6);
  }
  for (int i = 0; i < kSetupOnly; ++i) {
    Trial t = run_trial<W>(trial_seed(a.seed, 100 + i), 0, nullptr);
    tot.add(t);
    setup.push_back(t.setup_s);
  }
  const double verified =
      ratio(static_cast<double>(tot.attempted - tot.verdict.failed),
            static_cast<double>(tot.attempted));
  std::printf("# %s: median of %d trials of %.2f s; op latency from %zu "
              "samples (1 in %llu ops); failed_op_frac=%.17g\n",
              a.workload.c_str(), kTrials, trial_s, samples,
              static_cast<unsigned long long>(kSampleEvery), 1 - verified);
  print_result(tot, {{"ops_per_s", median(ops), "1/s"},
                     {"op_p50_ns", median(p50), "ns"},
                     {"op_p99_ns", median(p99), "ns"},
                     {"setup_s", median(setup), "s"},
                     {"shared_bytes", shared_bytes, "bytes"},
                     {"verified_op_frac", verified, "ratio"}});
  return tot.verdict.ok() ? 0 : 1;
}

/// Per-span-name duration and self-time samples from the traced trials.
struct SpanStats {
  std::vector<std::uint64_t> dur[kSpanNames], self[kSpanNames];
  std::uint64_t applies = 0, helped_applies = 0, dropped = 0;

  void add(const SpanBuffer& b) {
    dropped += b.dropped();
    for (const Span& s : b.spans()) {
      dur[s.name].push_back(s.end - s.start);
      self[s.name].push_back(s.self_ns);
      if (s.name == kAppsApply) {
        ++applies;
        helped_applies += s.child_committed ? 0 : 1;
      }
    }
  }
};

/// `Plain` is the gated workload, `Traced` the same with span decorators,
/// `Reference` the same over the retry baseline (void: none).
template <class Plain, class Traced, class Reference>
int run_traced(const Args& a) {
  const double trial_s =
      a.seconds * kTrialShare /
      (kUntracedTrials + kTracedTrials +
       (std::is_void_v<Reference> ? 0 : kBaselineTrials));
  Totals tot;
  std::vector<Metric> ms;

  tot.add(
      run_trial<Plain>(trial_seed(a.seed, 0), a.seconds * kWarmShare, nullptr));

  // Untraced trials: the layers' public counters and the overhead baseline.
  std::vector<double> ops;
  std::vector<std::uint64_t> lat;
  mwllsc::core::OpStatsSnapshot core;
  Outcome sum;  // summed layer counts
  std::uint64_t completed = 0;
  for (int i = 0; i < kUntracedTrials; ++i) {
    Trial t = run_trial<Plain>(trial_seed(a.seed, 1 + i), trial_s, nullptr);
    tot.add(t);
    ops.push_back(t.ops_per_s());
    lat.insert(lat.end(), t.lat_ns.begin(), t.lat_ns.end());
    completed += t.completed();
    core += t.out.core;
    sum.apps_applies += t.out.apps_applies;
    sum.apps_rounds += t.out.apps_rounds;
    sum.apps_max_rounds = std::max(sum.apps_max_rounds, t.out.apps_max_rounds);
    sum.mem.joins += t.out.mem.joins;
    sum.mem.degraded_joins += t.out.mem.degraded_joins;
    sum.mem.join_retries += t.out.mem.join_retries;
    sum.mem.crash_reclaims += t.out.mem.crash_reclaims;
    sum.abandons += t.out.abandons;
  }
  const double untraced_ops = median(ops);

  // Traced trials: same seeds, spans on the sampled operations.
  std::vector<std::unique_ptr<SpanBuffer>> bufs;
  for (unsigned t = 0; t <= kThreads; ++t) {  // the workers, then main
    bufs.push_back(std::make_unique<SpanBuffer>(t, kSpansPerThread));
  }
  std::vector<double> traced_ops;
  for (int i = 0; i < kTracedTrials; ++i) {
    Trial t = run_trial<Traced>(trial_seed(a.seed, 1 + i), trial_s, &bufs);
    tot.add(t);
    traced_ops.push_back(t.ops_per_s());
  }
  SpanStats sp;
  for (const auto& b : bufs) sp.add(*b);

  auto pct = [&](std::uint16_t name, bool self_time, const char* metric) {
    auto& v = self_time ? sp.self[name] : sp.dur[name];
    const std::string m(metric);
    ms.push_back({m + "_p50_ns", quantile(v, 0.50), "ns"});
    ms.push_back({m + "_p99_ns", quantile(v, 0.99), "ns"});
  };
  const auto ll_ops = static_cast<double>(core.ll_ops);
  pct(kCoreLl, false, "core.ll");
  ms.push_back({"core.rescue_per_ll",
                ratio(static_cast<double>(core.ll_used_helped_value), ll_ops),
                "ratio"});
  ms.push_back({"core.helped_per_ll",
                ratio(static_cast<double>(core.ll_helped), ll_ops), "ratio"});
  pct(kCoreScCommit, false, "core.sc_commit");
  pct(kCoreScFail, false, "core.sc_fail");
  ms.push_back({"core.sc_success_ratio",
                ratio(static_cast<double>(core.sc_success),
                      static_cast<double>(core.sc_ops)),
                "ratio"});
  ms.push_back({"core.rounds_per_op",
                ratio(ll_ops, static_cast<double>(completed)), "ratio"});
  ms.push_back({"core.helps_per_sc",
                ratio(static_cast<double>(core.helps_given),
                      static_cast<double>(core.sc_success)),
                "ratio"});
  ms.push_back({"core.ll_retries", static_cast<double>(core.ll_retries),
                "count"});

  const Ladder lad = run_ladder();
  tot.verdict.merge(lad.verdict);
  ms.push_back({"llsc.pair_ns", lad.llsc_ns, "ns"});
  ms.push_back({"core.pair_ns", lad.core_ns, "ns"});
  ms.push_back({"any.pair_ns", lad.any_ns, "ns"});
  ms.push_back({"membership.session_pair_ns", lad.session_ns, "ns"});
  ms.push_back({"apps.apply_1t_ns", lad.apps_ns, "ns"});

  pct(kAppsApply, false, "apps.apply");
  pct(kAppsApply, true, "apps.self");
  ms.push_back({"apps.rounds_per_apply",
                ratio(static_cast<double>(sum.apps_rounds),
                      static_cast<double>(sum.apps_applies)),
                "ratio"});
  ms.push_back({"apps.max_rounds", static_cast<double>(sum.apps_max_rounds),
                "count"});
  ms.push_back({"apps.helped_apply_frac",
                ratio(static_cast<double>(sp.helped_applies),
                      static_cast<double>(sp.applies)),
                "ratio"});

  const double joins =
      static_cast<double>(sum.mem.joins + sum.mem.degraded_joins);
  pct(kJoin, false, "membership.join");
  pct(kRetire, false, "membership.retire");
  ms.push_back({"membership.degraded_join_frac",
                ratio(static_cast<double>(sum.mem.degraded_joins), joins),
                "ratio"});
  ms.push_back({"membership.join_retries_per_join",
                ratio(static_cast<double>(sum.mem.join_retries), joins),
                "ratio"});
  ms.push_back({"membership.reclaims_per_abandon",
                ratio(static_cast<double>(sum.mem.crash_reclaims),
                      static_cast<double>(sum.abandons)),
                "ratio"});

  double retry_ops = 0;
  if constexpr (!std::is_void_v<Reference>) {
    std::vector<double> r;
    for (int i = 0; i < kBaselineTrials; ++i) {
      Trial t =
          run_trial<Reference>(trial_seed(a.seed, 1 + i), trial_s, nullptr);
      tot.add(t);
      r.push_back(t.ops_per_s());
    }
    retry_ops = median(r);
  }
  ms.push_back({"baseline.retry_ops_per_s", retry_ops, "1/s"});
  ms.push_back({"baseline.jp_over_retry", ratio(untraced_ops, retry_ops),
                "ratio"});

  // The highest percentile the samples support: at least ten beyond it.
  const double tail_q =
      lat.size() > 10 ? 1.0 - 10.0 / static_cast<double>(lat.size()) : 1.0;
  const std::size_t samples = lat.size();
  ms.push_back({"bench.trial_spread", iqr_over_median(ops), "ratio"});
  ms.push_back({"bench.op_tail_ns", quantile(lat, tail_q), "ns"});
  ms.push_back({"bench.op_samples", static_cast<double>(samples), "count"});
  ms.push_back({"bench.failed_op_frac",
                ratio(static_cast<double>(tot.verdict.failed),
                      static_cast<double>(tot.attempted)),
                "ratio"});
  ms.push_back({"obs.span_overhead_frac",
                1.0 - ratio(median(traced_ops), untraced_ops), "ratio"});

  std::printf("# %s traced: untraced %.0f ops/s, traced %.0f ops/s, "
              "op tail at q=%.6f, %llu spans dropped\n",
              a.workload.c_str(), untraced_ops, median(traced_ops), tail_q,
              static_cast<unsigned long long>(sp.dropped));
  std::printf("# spans recorded:");
  for (std::uint16_t n = 0; n < kSpanNames; ++n) {
    if (!sp.dur[n].empty()) std::printf(" %s=%zu", span_name(n), sp.dur[n].size());
  }
  std::printf("\n");
  if (!a.spans_dir.empty()) {
    const std::string path = a.spans_dir + "/" + a.workload + ".trace.json";
    std::vector<const SpanBuffer*> view;
    for (const auto& b : bufs) view.push_back(b.get());
    if (write_chrome_trace(path, view, kSpansWrittenPerThread)) {
      std::printf("# spans: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  print_result(tot, ms);
  return tot.verdict.ok() ? 0 : 1;
}

template <class Plain, class Traced, class Reference = void>
int run(const Args& a) {
  return a.trace ? run_traced<Plain, Traced, Reference>(a) : run_gated<Plain>(a);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wide_scan|rmw_counter|wf_queue|"
               "session_churn --seed N --seconds S --trace 0|1 "
               "[--spans-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') return usage();
    } else if (k == "--trace") {
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || a.trace < 0 || !(a.seconds > 0)) return usage();

  if (a.workload == "wide_scan") {
    return run<WideScan<Jp>, WideScan<TimedCore<Jp>>, WideScan<Retry>>(a);
  }
  if (a.workload == "rmw_counter") {
    return run<RmwCounter<Jp>, RmwCounter<TimedCore<Jp>>, RmwCounter<Retry>>(a);
  }
  if (a.workload == "wf_queue") {
    return run<WfQueueLoad<false>, WfQueueLoad<true>>(a);
  }
  if (a.workload == "session_churn") {
    return run<SessionChurn<Jp>, SessionChurn<TimedCore<Jp>>>(a);
  }
  return usage();
}
