// The closed-loop trial runner: kThreads worker threads, each a caller that
// waits for its own operation to complete before issuing the next, run a
// freshly set-up workload for a fixed time. Operation latency is sampled on
// a fixed 1-in-kSampleEvery schedule so clock reads stay a small share of
// the run; in a traced trial the same sampled operations record spans.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"
#include "util/timing.hpp"

namespace perfbench {

/// Latency sample schedule: operation i of a thread is timed iff
/// i % kSampleEvery == 0; in a traced trial, one timed operation in
/// kSpanEvery also records its spans.
inline constexpr std::uint64_t kSampleEvery = 64;
inline constexpr std::uint64_t kSpanEvery = 16;
inline constexpr std::size_t kMaxSamplesPerThread = std::size_t{1} << 18;

/// One worker thread's tallies for one trial.
struct Worker {
  std::uint64_t attempted = 0;  ///< operations issued
  Verdict verdict;              ///< operations that failed a check
  std::vector<std::uint64_t> lat_ns;
  SpanBuffer* spans = nullptr;  ///< set in traced trials

  /// Runs one operation `f`, timing it (and recording its spans) when the
  /// sample schedule selects it.
  template <class F>
  void op(F&& f) {
    const std::uint64_t i = attempted++;
    if (i % kSampleEvery != 0) {
      f();
      return;
    }
    const bool rec = spans != nullptr && i % (kSampleEvery * kSpanEvery) == 0;
    if (rec) spans->set_recording(true, i);
    const std::uint64_t t0 = mwllsc::util::now_ns();
    {
      SpanScope s(kOp);
      f();
    }
    const std::uint64_t t1 = mwllsc::util::now_ns();
    if (rec) spans->set_recording(false, 0);
    if (lat_ns.size() < lat_ns.capacity()) lat_ns.push_back(t1 - t0);
  }
};

/// What the workload reports back after its threads have joined.
struct Outcome {
  Verdict verdict;                 ///< final-state checks
  double shared_bytes = 0;         ///< sum of footprint().shared_bytes()
  mwllsc::core::OpStatsSnapshot core;  ///< the LL/SC object's stats()
  // Layer counts that only some workloads have.
  std::uint64_t apps_applies = 0, apps_rounds = 0, apps_max_rounds = 0;
  mwllsc::membership::MembershipSnapshot mem;
  std::uint64_t abandons = 0;
};

struct Trial {
  double seconds = 0;  ///< measured interval
  double setup_s = 0;  ///< construct + install initial value + start workers
  std::uint64_t attempted = 0;
  Verdict verdict;
  std::vector<std::uint64_t> lat_ns;  ///< all threads' samples
  Outcome out;

  std::uint64_t completed() const { return attempted - verdict.failed; }
  double ops_per_s() const {
    return seconds > 0 ? static_cast<double>(completed()) / seconds : 0;
  }
};

/// Sets up workload `W` from `seed`, runs it for `seconds` and checks it.
/// `spans` (traced trials only) holds one buffer per worker thread and a
/// last one for the checks run on this thread.
template <class W>
Trial run_trial(std::uint64_t seed, double seconds,
                const std::vector<std::unique_ptr<SpanBuffer>>* spans) {
  Trial r;
  std::vector<Worker> ws(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    ws[t].lat_ns.reserve(kMaxSamplesPerThread);
    if (spans != nullptr) ws[t].spans = (*spans)[t].get();
  }
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false}, stop{false};

  const std::uint64_t t_setup = mwllsc::util::now_ns();
  auto w = std::make_unique<W>(seed);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  // On every exit, including a failed thread start, release and stop the
  // workers before `w` and the flags they use are destroyed.
  struct JoinAll {
    std::atomic<bool>& go;
    std::atomic<bool>& stop;
    std::vector<std::thread>& pool;
    ~JoinAll() {
      stop.store(true, std::memory_order_relaxed);
      go.store(true, std::memory_order_release);
      for (auto& th : pool) {
        if (th.joinable()) th.join();
      }
    }
  } join_all{go, stop, pool};
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      tl_spans = ws[t].spans;
      // Relaxed: go's release/acquire pair publishes the set-up state.
      ready.fetch_add(1, std::memory_order_relaxed);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      w->run(t, ws[t], stop);
      tl_spans = nullptr;
    });
  }
  while (ready.load(std::memory_order_relaxed) < kThreads) {
    std::this_thread::yield();
  }
  const std::uint64_t t_start = mwllsc::util::now_ns();
  r.setup_s = static_cast<double>(t_start - t_setup) / 1e9;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  const std::uint64_t t_stop = mwllsc::util::now_ns();
  for (auto& th : pool) th.join();
  r.seconds = static_cast<double>(t_stop - t_start) / 1e9;

  if (spans != nullptr) {
    tl_spans = spans->back().get();
    tl_spans->set_recording(true, 0);
  }
  r.out = w->finish();
  if (spans != nullptr) {
    tl_spans->set_recording(false, 0);
    tl_spans = nullptr;
  }
  r.verdict.merge(r.out.verdict);
  for (auto& wk : ws) {
    r.attempted += wk.attempted;
    r.verdict.merge(wk.verdict);
    r.lat_ns.insert(r.lat_ns.end(), wk.lat_ns.begin(), wk.lat_ns.end());
  }
  // Final-state failures condemn operations that were already counted as
  // attempted; keep failed <= attempted so the fraction stays a fraction.
  if (r.verdict.failed > r.attempted) r.attempted = r.verdict.failed;
  return r;
}

/// Nearest-rank quantile of `v` (reorders it); 0 for no samples.
inline double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Interquartile range over median, with the quartiles taken the way
/// Python's statistics.quantiles(values, n=4) takes them.
inline double iqr_over_median(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 2) return 0;
  std::sort(v.begin(), v.end());
  auto q = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = j < 1 ? 1 : (j > n - 1 ? n - 1 : j);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  const double med = median(v);
  return med != 0 ? (q(3) - q(1)) / med : 0;
}

}  // namespace perfbench
