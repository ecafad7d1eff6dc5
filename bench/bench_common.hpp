// Shared infrastructure for the benchmark harness (experiments E1-E10, see
// DESIGN.md §4): implementation factories behind the IMwLLSC facade and a
// timed read-modify-write throughput driver, so every series in every table
// is produced by identical code.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/am_llsc.hpp"
#include "baseline/lock_llsc.hpp"
#include "baseline/retry_llsc.hpp"
#include "core/any.hpp"
#include "core/mwllsc.hpp"
#include "obs/export.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threads.hpp"
#include "util/timing.hpp"

namespace mwllsc::bench {

/// The implementations every comparative experiment runs.
inline std::vector<core::MwLLSCFactory> all_factories() {
  using core::IMwLLSC;
  using core::MwLLSCAdapter;
  return {
      {"jp", [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<MwLLSCAdapter<core::MwLLSC<llsc::Dw128LLSC>>>(
             n, w);
       }},
      {"am", [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<
             MwLLSCAdapter<baseline::AmLLSC<llsc::Dw128LLSC>>>(n, w);
       }},
      {"retry",
       [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<
             MwLLSCAdapter<baseline::RetryLLSC<llsc::Dw128LLSC>>>(n, w);
       }},
      {"lock",
       [](std::uint32_t n, std::uint32_t w) -> std::unique_ptr<IMwLLSC> {
         return std::make_unique<MwLLSCAdapter<baseline::LockLLSC>>(n, w);
       }},
  };
}

inline core::MwLLSCFactory factory_by_name(const std::string& name) {
  for (auto& f : all_factories()) {
    if (f.name == name) return f;
  }
  std::abort();
}

/// Thread counts for scaling experiments: 1, 2, 4, ... up to the hardware.
inline std::vector<unsigned> scaling_thread_counts(unsigned cap = 0) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  if (cap != 0 && hw > cap) hw = cap;
  std::vector<unsigned> out;
  for (unsigned t = 1; t <= hw; t *= 2) out.push_back(t);
  if (out.back() != hw) out.push_back(hw);
  return out;
}

struct ThroughputResult {
  double mops = 0;            // million operations per second (LL+SC pairs)
  double sc_success_rate = 0; // successful SCs / attempted SCs
  core::OpStatsSnapshot stats;
};

/// Timed mixed workload: every thread loops { LL; modify; SC } on a private
/// process id for `duration_ns`. This is the paper's canonical use pattern
/// (read-modify-write of a W-word object).
inline ThroughputResult run_rmw_throughput(core::IMwLLSC& obj,
                                           unsigned threads,
                                           std::uint64_t duration_ns) {
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> total_pairs{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::vector<std::uint64_t> value(obj.words());
    std::uint64_t pairs = 0;
    util::SplitMix64 g(t + 1);
    while (!run.should_stop()) {
      obj.ll(t, value.data());
      value[0] += 1;
      if (obj.words() > 1) value[obj.words() - 1] = g.next();
      obj.sc(t, value.data());
      ++pairs;
    }
    total_pairs.fetch_add(pairs, std::memory_order_relaxed);
  });
  ThroughputResult r;
  r.stats = obj.stats();
  r.mops = static_cast<double>(total_pairs.load(std::memory_order_relaxed)) /
           (static_cast<double>(run.measured_ns()) / 1e9) / 1e6;
  r.sc_success_rate = r.stats.sc_ops
                          ? static_cast<double>(r.stats.sc_success) /
                                static_cast<double>(r.stats.sc_ops)
                          : 0.0;
  return r;
}

// ------------------------------------------------------------------------
// Command line.
//
// Each bench declares the flags it accepts: switches, and flags that take
// a value. Anything else, a value flag without its value, a numeric flag
// whose value is not a number in its range, or `--trace` in a build
// without MWLLSC_TRACE (it could only write an empty dump) prints usage and
// exits 2 before any run, so a mistyped flag cannot pass as a run that
// silently skipped its output or ran something else.

class Args {
 public:
  Args(int argc, char** argv, std::vector<std::string> switches,
       std::vector<std::string> valued)
      : prog_(argv[0]),
        switches_(std::move(switches)),
        valued_(std::move(valued)) {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (declared(switches_, flag)) {
        given_[flag] = "";
      } else if (declared(valued_, flag) && i + 1 < argc &&
                 argv[i + 1][0] != '\0' &&
                 std::strncmp(argv[i + 1], "--", 2) != 0) {
        given_[flag] = argv[++i];
      } else {
        usage(declared(valued_, flag) ? flag + " needs a value"
                                      : "unknown argument " + flag);
      }
    }
#if !defined(MWLLSC_TRACE)
    if (has("--trace")) {
      usage("--trace needs a build with -DMWLLSC_TRACE=ON");
    }
#endif
  }

  /// True if `flag` was given.
  bool has(const std::string& flag) const { return given_.count(flag) != 0; }

  /// The value of `flag`, or "" if it was not given.
  std::string value(const std::string& flag) const {
    const auto it = given_.find(flag);
    return it == given_.end() ? "" : it->second;
  }

  /// The value of `flag` as a decimal integer in [lo, hi], or `dflt` if
  /// the flag was not given. Anything else — a sign, trailing characters,
  /// a value out of range — prints usage and exits 2.
  std::uint64_t number(const std::string& flag, std::uint64_t dflt,
                       std::uint64_t lo, std::uint64_t hi) const {
    if (!has(flag)) return dflt;
    const std::string v = value(flag);
    std::uint64_t n = 0;
    const auto [end, err] = std::from_chars(v.data(), v.data() + v.size(), n);
    if (err != std::errc() || end != v.data() + v.size() || n < lo ||
        n > hi) {
      usage(flag + " needs an integer in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], not '" + v + "'");
    }
    return n;
  }

 private:
  static bool declared(const std::vector<std::string>& flags,
                       const std::string& flag) {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }

  [[noreturn]] void usage(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\nusage: %s", prog_.c_str(), why.c_str(),
                 prog_.c_str());
    for (const auto& f : switches_) std::fprintf(stderr, " [%s]", f.c_str());
    for (const auto& f : valued_) std::fprintf(stderr, " [%s ARG]", f.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  std::string prog_;
  std::vector<std::string> switches_;
  std::vector<std::string> valued_;
  std::map<std::string, std::string> given_;
};

// ------------------------------------------------------------------------
// Observability session (--trace / --metrics, DESIGN.md §8).
//
// Every bench constructs one ObsSession from its Args; benches bind the
// objects they create to it, absorb their counters/latencies into the
// registry, and call finish() after the threads join. `--trace PATH`
// writes the trace dump (obs::write_trace, what trace_check reads) to PATH
// and its Perfetto view to PATH.json. Tracing needs the MWLLSC_TRACE
// build (Args refuses `--trace` without it); the metrics registry always
// works. E2, E3, E7 and E10 also record each table value here as a
// `mwllsc_bench_*` gauge: `--metrics PATH` is the one machine-readable
// output.

class ObsSession {
 public:
  ObsSession(const Args& args, std::uint32_t nprocs,
             obs::TraceConfig cfg = {})
      : trace_path_(args.value("--trace")),
        metrics_path_(args.value("--metrics")) {
    if (!trace_path_.empty()) {
      sink_ = std::make_unique<obs::TraceSink>(nprocs, cfg);
    }
  }

  bool tracing() const { return sink_ != nullptr; }
  bool metrics_requested() const { return !metrics_path_.empty(); }
  obs::TraceSink* sink() { return sink_.get(); }
  obs::MetricsRegistry& registry() { return registry_; }

  /// Binds any object exposing set_trace(TraceSink*, var) + words() — an
  /// IMwLLSC facade or an apps-layer construction — under a fresh variable
  /// id; `label` should start with the substrate name ("jp w=4 n=8") so
  /// the offline checker's prefix rules apply (the object self-describes
  /// first; this richer label overwrites it).
  template <class T>
  std::uint32_t bind(T& obj, const std::string& label) {
    const std::uint32_t id = next_var_++;
    if (sink_) {
      obj.set_trace(sink_.get(), id);
      sink_->describe_var(id, obj.words(), label);
    }
    return id;
  }

  /// Absorbs an implementation's counters under `impl="<name>"` labels.
  void absorb_stats(const std::string& impl,
                    const core::OpStatsSnapshot& s) {
    registry_.absorb("impl=\"" + impl + "\"", s);
  }

  /// Collects rings, derives trace metrics, and writes the requested
  /// files. Call after every traced thread has joined. Returns false if
  /// any requested file failed to write.
  bool finish() {
    bool ok = true;
    std::string err;
    if (sink_ && !trace_path_.empty()) {
      const obs::TraceData d = sink_->collect();
      registry_.absorb_trace(d);
      const std::string view = trace_path_ + ".json";
      if (obs::write_trace(trace_path_, d, &err) &&
          obs::write_chrome_trace(view, d, &err)) {
        std::fprintf(stderr,
                     "[obs] wrote %llu events (%u procs) to %s "
                     "(Perfetto view: %s)\n",
                     static_cast<unsigned long long>(d.total_events()),
                     static_cast<unsigned>(d.per_pid.size()),
                     trace_path_.c_str(), view.c_str());
      } else {
        std::fprintf(stderr, "[obs] trace export failed: %s\n", err.c_str());
        ok = false;
      }
    }
    if (!metrics_path_.empty()) {
      if (obs::write_prometheus(metrics_path_, registry_, &err)) {
        std::fprintf(stderr, "[obs] wrote %zu metric series to %s\n",
                     registry_.metrics().size(), metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] metrics export failed: %s\n",
                     err.c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::TraceSink> sink_;
  obs::MetricsRegistry registry_;
  std::uint32_t next_var_ = 0;
};

}  // namespace mwllsc::bench
