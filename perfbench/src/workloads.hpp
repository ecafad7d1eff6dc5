// The four workloads. Each is constructed from a seed (which derives every
// payload, writer stamp and abandon schedule), runs one closed-loop caller
// per thread through Worker::op, and checks its own outputs: online per
// operation where an operation's result can be judged alone, and in
// finish() for the final state and the layers' public counters.
//
//   wide_scan      jp, W=64: one writer stamping all words with its
//                  version, three scanners that only LL. The core LL path.
//   rmw_counter    jp, W=4: four threads of fetch&add as LL/SC retry
//                  loops. The core SC path.
//   wf_queue       apps::WfQueue<64> over jp: each thread enqueues, then
//                  dequeues. The apps help-all path plus 74-word copies.
//   session_churn  ManagedMwLLSC<jp>, 2 slots, 4 threads, W=4: leases of
//                  join -> 16 fetch&adds -> retire, every 8th abandoned.
//                  The membership layer, and the only workload touching it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <type_traits>

#include "apps/wf_queue.hpp"
#include "baseline/retry_llsc.hpp"
#include "core/mwllsc.hpp"
#include "harness.hpp"
#include "membership/managed.hpp"

namespace perfbench {

using Jp = mwllsc::core::MwLLSC<mwllsc::llsc::Dw128LLSC>;
using Retry = mwllsc::baseline::RetryLLSC<mwllsc::llsc::Dw128LLSC>;

/// jp keeps the I2 bank-write and retry counters; the retry baseline does
/// not count them, so its stats are not checked against jp's invariants.
template <class Obj>
inline constexpr bool kChecksJpStats = !std::is_same_v<Obj, Retry>;

inline bool stopped(const std::atomic<bool>& stop) {
  return stop.load(std::memory_order_relaxed);
}

template <class Obj>
class WideScan {
 public:
  static constexpr std::uint32_t kW = 64;

  explicit WideScan(std::uint64_t seed) : obj_(kThreads, kW), stamp_(seed) {
    std::uint64_t buf[kW];
    obj_.ll(0, buf);
    std::fill(buf, buf + kW, stamp_.word(0));
    if (!obj_.sc(0, buf)) setup_.fail(1, "installing the initial value failed");
  }

  void run(unsigned t, Worker& wk, const std::atomic<bool>& stop) {
    std::uint64_t buf[kW];
    std::uint64_t last = 0;
    if (t == 0) {  // the writer: LL, check it reads its own last version, SC
      while (!stopped(stop)) {
        wk.op([&] {
          for (;;) {
            obj_.ll(0, buf);
            if (!check_scan(buf, kW, stamp_, last, wk.verdict)) return;
            if (last != commits_) {
              wk.verdict.fail(1, "the only writer read a version it did not write");
              return;
            }
            std::fill(buf, buf + kW, stamp_.word(commits_ + 1));
            if (obj_.sc(0, buf)) {
              ++commits_;
              return;
            }
          }
        });
      }
      return;
    }
    while (!stopped(stop)) {
      wk.op([&] {
        obj_.ll(t, buf);
        check_scan(buf, kW, stamp_, last, wk.verdict);
      });
    }
    last_seen_[t] = last;
  }

  Outcome finish() {
    Outcome o;
    o.verdict.merge(setup_);
    std::uint64_t buf[kW];
    std::uint64_t version = 0;
    obj_.ll(1, buf);
    check_scan(buf, kW, stamp_, version, o.verdict);
    if (version != commits_) {
      o.verdict.fail(1, "final version " + std::to_string(version) + " != " +
                            std::to_string(commits_) + " commits");
    }
    for (unsigned t = 1; t < kThreads; ++t) {
      if (last_seen_[t] > commits_) {
        o.verdict.fail(1, "a scanner saw a version that was never written");
      }
    }
    o.core = obj_.stats();
    if constexpr (kChecksJpStats<Obj>) check_jp_stats(o.core, o.verdict);
    o.shared_bytes = static_cast<double>(obj_.footprint().shared_bytes());
    return o;
  }

 private:
  Obj obj_;
  Stamp stamp_;
  Verdict setup_;
  std::uint64_t commits_ = 0;  ///< written by the writer thread only
  std::array<std::uint64_t, kThreads> last_seen_{};
};

template <class Obj>
class RmwCounter {
 public:
  static constexpr std::uint32_t kW = 4;

  explicit RmwCounter(std::uint64_t seed) : obj_(kThreads, kW) {
    mwllsc::util::SplitMix64 sm(seed);
    for (auto& b : base_) b = sm.next();
    std::uint64_t buf[kW];
    obj_.ll(0, buf);
    std::copy(base_.begin(), base_.end(), buf);
    if (!obj_.sc(0, buf)) setup_.fail(1, "installing the initial value failed");
  }

  void run(unsigned t, Worker& wk, const std::atomic<bool>& stop) {
    std::uint64_t buf[kW];
    std::uint64_t n = 0;
    while (!stopped(stop)) {
      wk.op([&] {
        for (;;) {
          obj_.ll(t, buf);
          for (auto& x : buf) ++x;
          if (obj_.sc(t, buf)) {
            ++n;
            return;
          }
        }
      });
    }
    committed_[t] = n;
  }

  Outcome finish() {
    Outcome o;
    o.verdict.merge(setup_);
    std::uint64_t buf[kW];
    obj_.ll(0, buf);
    std::uint64_t total = 0;
    for (auto c : committed_) total += c;
    check_counter(buf, base_.data(), kW, total, o.verdict);
    o.core = obj_.stats();
    if constexpr (kChecksJpStats<Obj>) check_jp_stats(o.core, o.verdict);
    o.shared_bytes = static_cast<double>(obj_.footprint().shared_bytes());
    return o;
  }

 private:
  Obj obj_;
  std::array<std::uint64_t, kW> base_{};
  Verdict setup_;
  std::array<std::uint64_t, kThreads> committed_{};
};

/// `Traced` selects the substrate: plain jp, or jp wrapped in the any/core
/// span decorators.
template <bool Traced>
class WfQueueLoad {
 public:
  static constexpr std::size_t kCap = 64;
  using Queue = mwllsc::apps::WfQueue<kCap>;

  explicit WfQueueLoad(std::uint64_t seed)
      : q_(kThreads, Traced ? timed_jp_substrate<Jp>()
                            : mwllsc::apps::jp_substrate()),
        codec_(seed) {}

  void run(unsigned t, Worker& wk, const std::atomic<bool>& stop) {
    std::array<std::uint64_t, kThreads> last{};
    QueueTotals tot;
    std::uint64_t seq = 0, applies = 0;
    while (!stopped(stop)) {
      const std::uint64_t v = codec_.encode(t, ++seq);
      wk.op([&] {
        bool ok;
        {
          SpanScope s(kAppsApply);
          ok = q_.enqueue(t, v);
        }
        if (!ok) {
          wk.verdict.fail(1, "enqueue refused: queue full");
          return;
        }
        ++tot.enq_count;
        tot.enq_sum += v;
      });
      wk.op([&] {
        std::uint64_t d;
        {
          SpanScope s(kAppsApply);
          d = q_.dequeue(t);
        }
        if (check_dequeue(d, codec_, last, wk.verdict)) {
          ++tot.deq_count;
          tot.deq_sum += d;
        }
      });
      applies += 2;
    }
    totals_[t] = tot;
    applies_[t] = applies;
  }

  Outcome finish() {
    Outcome o;
    QueueTotals tot;
    for (const auto& t : totals_) tot += t;
    for (auto a : applies_) o.apps_applies += a;
    // Drain what the workers left behind (each ends on a dequeue, so
    // normally nothing): every drained value must be a genuine one.
    for (;;) {
      const std::uint64_t d = q_.dequeue(0);
      ++o.apps_applies;
      if (d == mwllsc::apps::kQueueEmpty) break;
      unsigned p = 0;
      std::uint64_t seq = 0;
      if (!codec_.decode(d, p, seq)) {
        o.verdict.fail(1, "drained a value no producer enqueued");
      }
      ++tot.deq_count;
      tot.deq_sum += d;
    }
    check_queue_totals(tot, q_.max_attempts(), /*WfUniversal::kMaxAttempts*/ 3,
                       o.verdict);
    o.apps_rounds = q_.total_attempts();
    o.apps_max_rounds = q_.max_attempts();
    o.core = q_.substrate().stats();
    check_jp_stats(o.core, o.verdict);
    o.shared_bytes =
        static_cast<double>(q_.substrate().footprint().shared_bytes());
    return o;
  }

 private:
  Queue q_;
  QueueCodec codec_;
  std::array<QueueTotals, kThreads> totals_{};
  std::array<std::uint64_t, kThreads> applies_{};
};

template <class Impl>
class SessionChurn {
 public:
  static constexpr std::uint32_t kW = 4;
  static constexpr std::uint32_t kSlots = 2;
  static constexpr std::uint32_t kOpsPerLease = 16;
  static constexpr std::uint64_t kAbandonEvery = 8;
  /// Lease-level spans (join/retire/abandon) on one lease in this many.
  static constexpr std::uint64_t kLeaseSpanEvery = 32;
  using Managed = mwllsc::membership::ManagedMwLLSC<Impl>;

  explicit SessionChurn(std::uint64_t seed) : m_(kSlots, kW), seed_(seed) {
    mwllsc::util::SplitMix64 sm(seed);
    for (auto& b : base_) b = sm.next();
    std::uint64_t buf[kW];
    auto s = m_.join();
    s.ll(buf);
    std::copy(base_.begin(), base_.end(), buf);
    if (!s.sc(buf)) setup_.fail(1, "installing the initial value failed");
    s.retire();
  }

  void run(unsigned t, Worker& wk, const std::atomic<bool>& stop) {
    mwllsc::util::Xoshiro256 rng(seed_ + 0x9e3779b97f4a7c15ULL * (t + 1));
    const std::uint64_t phase = rng.next_below(kAbandonEvery);
    std::uint64_t buf[kW];
    Tally& me = tally_[t];
    auto lease_spans = [&](bool on) {
      if (wk.spans != nullptr) {
        wk.spans->set_recording(on && me.leases % kLeaseSpanEvery == 0,
                                me.leases);
      }
    };
    while (!stopped(stop)) {
      typename Managed::Session s;
      lease_spans(true);
      {
        SpanScope sp(kJoin);
        s = m_.join();
      }
      lease_spans(false);
      const bool abandon = (me.leases + phase) % kAbandonEvery == 0;
      const std::uint32_t ops = abandon ? rng.next_below(kOpsPerLease)
                                        : kOpsPerLease;
      for (std::uint32_t i = 0; i < ops; ++i) {
        wk.op([&] {
          for (;;) {
            s.ll(buf);
            for (auto& x : buf) ++x;
            if (s.sc(buf)) {
              ++me.committed;
              return;
            }
          }
        });
      }
      lease_spans(true);
      if (abandon) {
        // Crash between LL and SC: the uncommitted LL leaves a live link.
        s.ll(buf);
        me.orphaned += s.degraded() ? 0 : 1;
        ++me.abandons;
        SpanScope sp(kAbandon);
        s.abandon();
      } else {
        bool ok;
        {
          SpanScope sp(kRetire);
          ok = s.retire();
        }
        if (!ok) wk.verdict.fail(1, "retire found its slot reclaimed");
      }
      lease_spans(false);
      ++me.leases;
    }
  }

  Outcome finish() {
    Outcome o;
    o.verdict.merge(setup_);
    Tally all;
    for (const auto& t : tally_) {
      all.leases += t.leases;
      all.committed += t.committed;
      all.abandons += t.abandons;
      all.orphaned += t.orphaned;
    }
    {
      SpanScope sp(kReclaimScan);
      m_.reclaim_scan(/*include_stale=*/false);  // settle the last abandons
    }
    std::uint64_t buf[kW];
    {
      auto s = m_.join();
      s.ll(buf);
      s.retire();
    }
    check_counter(buf, base_.data(), kW, all.committed, o.verdict);
    o.mem = m_.membership();
    o.abandons = all.abandons;
    // Plus the set-up and final-read leases.
    check_membership(o.mem, all.leases + 2, all.orphaned, o.verdict);
    o.core = m_.stats();
    check_jp_stats(o.core, o.verdict);
    o.shared_bytes = static_cast<double>(m_.footprint().shared_bytes());
    return o;
  }

 private:
  struct alignas(64) Tally {
    std::uint64_t leases = 0, committed = 0, abandons = 0, orphaned = 0;
  };

  Managed m_;
  std::uint64_t seed_;
  std::array<std::uint64_t, kW> base_{};
  Verdict setup_;
  std::array<Tally, kThreads> tally_{};
};

}  // namespace perfbench
