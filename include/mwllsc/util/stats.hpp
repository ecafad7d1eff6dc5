// Operation statistics, space accounting and the small numeric helpers the
// bench tables need. Counters live in per-process cache-line-padded cells so
// that keeping statistics never becomes the scalability bottleneck being
// measured.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mwllsc::core {

/// One coherent sample of an implementation's per-operation counters.
/// The help-related fields follow the paper's LL pseudocode: a "helped" LL
/// found a donated buffer waiting in its announce slot (Line 4), a "rescue"
/// actually returned the donated value (Line 7), a "help install" is a
/// successful SC that performed the ownership exchange, and a "bank write"
/// is the buffer-retirement write every successful SC performs (Line 13 —
/// exactly one per successful SC, invariant I2).
struct OpStatsSnapshot {
  std::uint64_t ll_ops = 0;
  std::uint64_t sc_ops = 0;
  std::uint64_t sc_success = 0;
  std::uint64_t vl_ops = 0;
  std::uint64_t ll_helped = 0;
  std::uint64_t ll_used_helped_value = 0;
  std::uint64_t helps_given = 0;
  std::uint64_t bank_writes = 0;
  std::uint64_t ll_retries = 0;  ///< jp LLs whose help guarantee broke; 0
                                 ///< if it holds (tests assert it)

  OpStatsSnapshot& operator+=(const OpStatsSnapshot& o) {
    ll_ops += o.ll_ops;
    sc_ops += o.sc_ops;
    sc_success += o.sc_success;
    vl_ops += o.vl_ops;
    ll_helped += o.ll_helped;
    ll_used_helped_value += o.ll_used_helped_value;
    helps_given += o.helps_given;
    bank_writes += o.bank_writes;
    ll_retries += o.ll_retries;
    return *this;
  }
};

}  // namespace mwllsc::core

namespace mwllsc::util {

/// Per-process counter cell. Each process id has one writer at a time: the
/// thread driving it, and — when the membership layer reissues a pid, or
/// serializes degraded sessions on the reserved pid under its lock — the
/// next holder, ordered after the previous one by the slot hand-off. So a
/// bump is a relaxed load plus a relaxed store, not a locked RMW; readers
/// (snapshot) may run concurrently and see a slightly stale count. A pid
/// is reissued only after its holder retired or abandoned it, so two
/// holders never bump one cell at once. Padding keeps cells on distinct
/// lines.
struct alignas(64) OpStatsCell {
  std::atomic<std::uint64_t> ll_ops{0};
  std::atomic<std::uint64_t> sc_ops{0};
  std::atomic<std::uint64_t> sc_success{0};
  std::atomic<std::uint64_t> vl_ops{0};
  std::atomic<std::uint64_t> ll_helped{0};
  std::atomic<std::uint64_t> ll_used_helped_value{0};
  std::atomic<std::uint64_t> helps_given{0};
  std::atomic<std::uint64_t> bank_writes{0};
  std::atomic<std::uint64_t> ll_retries{0};

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
};

class OpStatsArray {
 public:
  explicit OpStatsArray(std::uint32_t nprocs)
      : cells_(new OpStatsCell[nprocs]), n_(nprocs) {}

  OpStatsCell& at(std::uint32_t p) { return cells_[p]; }
  const OpStatsCell& at(std::uint32_t p) const { return cells_[p]; }

  core::OpStatsSnapshot snapshot() const {
    core::OpStatsSnapshot s;
    for (std::uint32_t p = 0; p < n_; ++p) {
      const OpStatsCell& c = cells_[p];
      s.ll_ops += c.ll_ops.load(std::memory_order_relaxed);
      s.sc_ops += c.sc_ops.load(std::memory_order_relaxed);
      s.sc_success += c.sc_success.load(std::memory_order_relaxed);
      s.vl_ops += c.vl_ops.load(std::memory_order_relaxed);
      s.ll_helped += c.ll_helped.load(std::memory_order_relaxed);
      s.ll_used_helped_value +=
          c.ll_used_helped_value.load(std::memory_order_relaxed);
      s.helps_given += c.helps_given.load(std::memory_order_relaxed);
      s.bank_writes += c.bank_writes.load(std::memory_order_relaxed);
      s.ll_retries += c.ll_retries.load(std::memory_order_relaxed);
    }
    return s;
  }

  std::size_t bytes() const { return n_ * sizeof(OpStatsCell); }

 private:
  std::unique_ptr<OpStatsCell[]> cells_;
  std::uint32_t n_;
};

/// Named space breakdown of an implementation. Every part carries a
/// structured ownership tag — shared memory vs private per-process state —
/// so the space experiments filter on the tag, mirroring the paper's
/// accounting (shared words only), instead of string-matching part names.
class Footprint {
 public:
  enum class Ownership { kShared, kPerProcess };

  struct Part {
    std::string name;
    std::size_t bytes;
    Ownership ownership;
  };

  void add(std::string name, std::size_t bytes,
           Ownership ownership = Ownership::kShared) {
    parts_.push_back({std::move(name), bytes, ownership});
  }

  const std::vector<Part>& parts() const { return parts_; }

  std::size_t total_bytes() const {
    std::size_t t = 0;
    for (const auto& p : parts_) t += p.bytes;
    return t;
  }

  /// Bytes of shared memory — the quantity Theorem 1 bounds.
  std::size_t shared_bytes() const {
    std::size_t t = 0;
    for (const auto& p : parts_) {
      if (p.ownership == Ownership::kShared) t += p.bytes;
    }
    return t;
  }

 private:
  std::vector<Part> parts_;
};

/// Log2-bucketed latency histogram (nanoseconds). Accurate enough for the
/// p50/p99 columns of the stall-adversary table while costing O(1) per
/// record and O(64) space.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    ++buckets_[bucket_of(ns)];
    ++count_;
    if (ns > max_) max_ = ns;
  }

  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    if (o.max_ > max_) max_ = o.max_;
  }

  /// The q-quantile (0 <= q <= 1), interpolated linearly inside the bucket
  /// holding the rank — the bucket lower bound alone understates p99 by up
  /// to 2x at the log2 bucket width. Clamped to the observed max.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (seen + buckets_[i] > rank) {
        const std::uint64_t lo = lower_bound_of(i);
        const std::uint64_t hi = i + 1 < kBuckets ? lower_bound_of(i + 1)
                                                  : max_;
        // Samples assumed uniform inside the bucket: place the rank-th at
        // the (pos + 0.5)/n fraction of [lo, hi).
        const double frac = (static_cast<double>(rank - seen) + 0.5) /
                            static_cast<double>(buckets_[i]);
        const std::uint64_t v =
            lo + static_cast<std::uint64_t>(
                     frac * static_cast<double>(hi > lo ? hi - lo : 0));
        return v > max_ ? max_ : v;
      }
      seen += buckets_[i];
    }
    return max_;
  }

  std::uint64_t max() const { return max_; }
  std::uint64_t count() const { return count_; }

 private:
  static constexpr std::size_t kBuckets = 64;

  static std::size_t bucket_of(std::uint64_t ns) {
    if (ns == 0) return 0;
    return static_cast<std::size_t>(64 - __builtin_clzll(ns)) - 1;
  }

  static std::uint64_t lower_bound_of(std::size_t b) {
    return b == 0 ? 0 : (1ULL << b);
  }

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// Least-squares slope of log(y) against log(x): the fitted exponent k in
/// y ~ x^k. Used by the space tables to check the O(NW) vs O(N^2 W) claims.
inline double fitted_exponent(const std::vector<double>& xs,
                              const std::vector<double>& ys) {
  const std::size_t n = xs.size() < ys.size() ? xs.size() : ys.size();
  if (n < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom == 0) return 0.0;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

}  // namespace mwllsc::util
