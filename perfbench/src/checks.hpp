// Output checkers for the perfbench workloads. Each checker is a pure
// function of what a workload observed, so tests/checks_test.cpp can feed
// it a seeded wrong result and assert that it is caught. A failed check
// counts the operations it condemns in the Verdict; the benchmark reports
// them in `failed` and exits nonzero.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "membership/managed.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

/// Worker threads per workload: the closed-loop client count (nproc = 4
/// on the machine the benchmark was sized on).
inline constexpr unsigned kThreads = 4;

/// Failed-operation tally plus the first few reasons, for the report.
struct Verdict {
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops == 0 ? 1 : ops;
    if (problems.size() < 8) problems.push_back(why);
  }
  void merge(const Verdict& o) {
    failed += o.failed;
    for (const auto& p : o.problems) {
      if (problems.size() < 8) problems.push_back(p);
    }
  }
  bool ok() const { return failed == 0; }
};

/// wide_scan's writer stamp: version v is written as v * mul + add in every
/// word, with (mul odd, add) drawn from the seed. The map is a bijection on
/// 64-bit words, so a scan decodes back to the exact version it saw.
class Stamp {
 public:
  explicit Stamp(std::uint64_t seed) {
    mwllsc::util::SplitMix64 sm(seed);
    mul_ = sm.next() | 1;
    add_ = sm.next();
    inv_ = mul_;  // Newton's iteration for the inverse mod 2^64
    for (int i = 0; i < 6; ++i) inv_ *= 2 - mul_ * inv_;
  }
  std::uint64_t word(std::uint64_t version) const {
    return version * mul_ + add_;
  }
  std::uint64_t version(std::uint64_t word) const {
    return (word - add_) * inv_;
  }

 private:
  std::uint64_t mul_ = 1, add_ = 0, inv_ = 1;
};

/// One wide_scan LL: untorn (all words equal) and no older than this
/// scanner's previous scan. Advances `last` on success.
inline bool check_scan(const std::uint64_t* w, std::uint32_t n,
                       const Stamp& s, std::uint64_t& last, Verdict& v) {
  for (std::uint32_t i = 1; i < n; ++i) {
    if (w[i] != w[0]) {
      v.fail(1, "torn scan: word " + std::to_string(i) + " differs from word 0");
      return false;
    }
  }
  const std::uint64_t ver = s.version(w[0]);
  if (ver < last) {
    v.fail(1, "scan went back from version " + std::to_string(last) +
                  " to " + std::to_string(ver));
    return false;
  }
  last = ver;
  return true;
}

/// A counter's final value: word i must equal base[i] + committed.
inline void check_counter(const std::uint64_t* words,
                          const std::uint64_t* base, std::uint32_t n,
                          std::uint64_t committed, Verdict& v) {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (words[i] - base[i] != committed) {
      v.fail(1, "counter word " + std::to_string(i) + " holds " +
                    std::to_string(words[i] - base[i]) + " increments, " +
                    std::to_string(committed) + " committed");
    }
  }
}

/// jp's own invariants, read through the public stats(): the defensive LL
/// retry never fires, and every successful SC makes exactly one bank
/// write (I2).
inline void check_jp_stats(const mwllsc::core::OpStatsSnapshot& s,
                           Verdict& v) {
  if (s.ll_retries != 0) {
    v.fail(s.ll_retries, std::to_string(s.ll_retries) + " LL retries");
  }
  if (s.bank_writes != s.sc_success) {
    v.fail(1, "bank_writes " + std::to_string(s.bank_writes) +
                  " != sc_success " + std::to_string(s.sc_success));
  }
}

/// wf_queue values: producer id in the top byte, a seeded per-producer
/// key in the next, a per-producer sequence number (from 1) below. The top
/// byte is < kThreads, so no value is the empty sentinel.
class QueueCodec {
 public:
  explicit QueueCodec(std::uint64_t seed) {
    mwllsc::util::SplitMix64 sm(seed);
    for (auto& k : key_) k = sm.next() & 0xff;
  }
  std::uint64_t encode(unsigned producer, std::uint64_t seq) const {
    return (std::uint64_t{producer} << 56) | (key_[producer] << 48) |
           (seq & kSeqMask);
  }
  /// False if `v` is not a value any producer could have enqueued.
  bool decode(std::uint64_t v, unsigned& producer, std::uint64_t& seq) const {
    producer = static_cast<unsigned>(v >> 56);
    seq = v & kSeqMask;
    return producer < kThreads && ((v >> 48) & 0xff) == key_[producer] &&
           seq != 0;
  }

 private:
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;
  std::array<std::uint64_t, kThreads> key_{};
};

/// One dequeue seen by one consumer: not empty, a genuine enqueued value,
/// and that producer's sequence numbers strictly increasing in this
/// consumer's view (FIFO).
inline bool check_dequeue(std::uint64_t v, const QueueCodec& c,
                          std::array<std::uint64_t, kThreads>& last_seq,
                          Verdict& out) {
  if (v == ~std::uint64_t{0}) {
    out.fail(1, "dequeue returned empty after this thread's enqueue");
    return false;
  }
  unsigned p = 0;
  std::uint64_t seq = 0;
  if (!c.decode(v, p, seq)) {
    out.fail(1, "dequeued a value no producer enqueued");
    return false;
  }
  if (seq <= last_seq[p]) {
    out.fail(1, "producer " + std::to_string(p) + " seq " +
                    std::to_string(seq) + " after " +
                    std::to_string(last_seq[p]));
    return false;
  }
  last_seq[p] = seq;
  return true;
}

struct QueueTotals {
  std::uint64_t enq_count = 0, enq_sum = 0;
  std::uint64_t deq_count = 0, deq_sum = 0;  ///< including the final drain

  QueueTotals& operator+=(const QueueTotals& o) {
    enq_count += o.enq_count;
    enq_sum += o.enq_sum;
    deq_count += o.deq_count;
    deq_sum += o.deq_sum;
    return *this;
  }
};

/// Conservation (what went in came out, by count and checksum) and the
/// wait-free construction's <= 3 rounds per apply.
inline void check_queue_totals(const QueueTotals& t,
                               std::uint64_t max_attempts,
                               std::uint64_t attempt_bound, Verdict& v) {
  if (t.enq_count != t.deq_count) {
    v.fail(1, std::to_string(t.enq_count) + " enqueued, " +
                  std::to_string(t.deq_count) + " dequeued or drained");
  }
  if (t.enq_sum != t.deq_sum) v.fail(1, "enqueue/dequeue checksums differ");
  if (max_attempts > attempt_bound) {
    v.fail(1, "an apply took " + std::to_string(max_attempts) + " rounds");
  }
}

/// session_churn's lifecycle bookkeeping: every lease came from exactly one
/// (wait-free or degraded) join, and after the final sweep every orphaned
/// slot was reclaimed exactly once.
inline void check_membership(const mwllsc::membership::MembershipSnapshot& m,
                             std::uint64_t leases,
                             std::uint64_t orphaned, Verdict& v) {
  if (m.joins + m.degraded_joins != leases) {
    v.fail(1, std::to_string(m.joins) + " joins + " +
                  std::to_string(m.degraded_joins) + " degraded != " +
                  std::to_string(leases) + " leases");
  }
  if (m.crash_reclaims != orphaned) {
    v.fail(1, std::to_string(m.crash_reclaims) + " reclaims != " +
                  std::to_string(orphaned) + " abandoned slots");
  }
}

}  // namespace perfbench
