// Wait-free protocol-event tracing (DESIGN.md §8). Each process id owns a
// cache-line-padded, fixed-capacity ring of typed POD events; the hot-path
// write is two relaxed stores into memory only that process touches, so
// tracing never adds synchronization (or an unbounded allocation) to the
// wait-free protocol it observes. When the ring wraps, the newest events
// win — a trace is always a contiguous *suffix* of each process's history,
// and the per-ring dropped count tells consumers how much prefix is gone.
//
// The whole layer is compiled out unless MWLLSC_TRACE is defined: the
// TraceHandle the instrumented classes embed becomes an empty struct and
// every emit() call folds to nothing (tests static_assert the emptiness).
// When compiled in, TraceConfig adds a run-time sampling knob (record every
// 2^sample_shift-th event per ring) for runs too hot to trace exhaustively.
//
// Timestamps are raw TSC ticks on x86-64 (one rdtsc, no serialization —
// cheap and monotone enough for per-pid ordering; the rings themselves are
// the authoritative per-pid order). The sink samples (tsc, steady_clock)
// at construction and again at collect(), and exports the fitted
// ns-per-tick so consumers can convert.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace mwllsc::obs {

/// Protocol event taxonomy. The core/baseline events follow the paper's
/// LL/SC pseudocode (see OpStatsSnapshot's doc comment for the line
/// mapping); announce/help_all/apply_commit are the apps-layer help-all
/// universal construction.
enum class EventKind : std::uint16_t {
  kLlStart = 0,     ///< LL entered                      (tag = announce seq)
  kLlFast,          ///< LL fast path returned           (tag = linked tag)
  kLlHelped,        ///< donation raced a fast-path LL   (tag = announce seq)
  kLlRescue,        ///< LL returned the donated value   (tag = announce seq)
  kLlRetry,         ///< LL validation failed, looping   (defensive for jp)
  kScAttempt,       ///< SC entered                      (arg = link_valid)
  kScCommit,        ///< SC installed                    (tag = new version)
  kScFail,          ///< SC failed (semantic)
  kHelpInstall,     ///< SC donated a buffer pre-SC      (arg = helpee pid)
  kBankWrite,       ///< the one-per-SC retirement write (invariant I2)
  kBufferRetire,    ///< retired kind, no longer emitted: kBankWrite
                    ///< carries the same (tag, buffer) payload
  kAnnounce,        ///< apps: op published              (tag = op seq)
  kHelpAll,         ///< apps: help-all pass ran         (arg = ops applied)
  kApplyCommit,     ///< apps: apply finished            (arg = attempts)
  kProcJoin,        ///< membership: pid slot acquired   (arg = 1 if degraded)
  kProcRetire,      ///< membership: pid slot released   (tag = slot generation)
  kProcCrashReclaim,///< membership: dead pid reclaimed  (tag = announce seq)
  kLlFallback,      ///< jp LL first attempt drifted > P; announced
                    ///<                                 (tag = announce seq)
  kCount,
};

inline const char* event_name(EventKind k) {
  static const char* names[] = {
      "ll_start",  "ll_fast",   "ll_helped",    "ll_rescue",     "ll_retry",
      "sc_attempt", "sc_commit", "sc_fail",     "help_install",  "bank_write",
      "buffer_retire", "announce", "help_all",  "apply_commit",
      "proc_join", "proc_retire", "proc_crash_reclaim", "ll_fallback"};
  const auto i = static_cast<std::size_t>(k);
  return i < static_cast<std::size_t>(EventKind::kCount) ? names[i] : "?";
}

/// One recorded protocol event. Fixed-size POD written with relaxed stores;
/// `tag` and `arg` carry per-kind payloads (see EventKind comments).
struct TraceEvent {
  std::uint64_t tsc = 0;   ///< raw timestamp (TSC ticks; ns off x86)
  std::uint64_t tag = 0;   ///< seq / version tag, per kind
  std::uint32_t var = 0;   ///< traced-variable id (TraceSink::describe_var)
  std::uint32_t arg = 0;   ///< per-kind extra (buffer id, helpee pid, ...)
  std::uint16_t kind = 0;  ///< EventKind
  std::uint16_t pid = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(TraceEvent) == 32, "events are fixed-size records");
static_assert(std::is_trivially_copyable_v<TraceEvent>, "POD events only");

inline std::uint64_t trace_now() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

struct TraceConfig {
  std::uint32_t capacity = 1u << 14;  ///< events per process (rounded pow2)
  std::uint32_t sample_shift = 0;     ///< record every 2^shift-th event
};

/// Per-process event ring. Single-writer: only the owning process records;
/// readers call snapshot() strictly after the recording threads quiesce
/// (joined or barriered), which the join's happens-before makes race-free.
/// head_ is a relaxed atomic so a concurrent *peek* (e.g. a progress
/// printer reading counts) is merely stale, never UB.
class alignas(64) TraceRing {
 public:
  void init(std::uint32_t capacity, std::uint32_t sample_shift) {
    cap_ = 1;
    while (cap_ < capacity) cap_ <<= 1;
    mask_ = cap_ - 1;
    sample_mask_ = (std::uint64_t{1} << sample_shift) - 1;
    slots_.reset(new TraceEvent[cap_]);
  }

  void record(EventKind k, std::uint16_t pid, std::uint32_t var,
              std::uint64_t tag, std::uint32_t arg) {
    if ((seen_++ & sample_mask_) != 0) return;  // sampling knob
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    TraceEvent& e = slots_[h & mask_];
    e.tsc = trace_now();
    e.tag = tag;
    e.var = var;
    e.arg = arg;
    e.kind = static_cast<std::uint16_t>(k);
    e.pid = pid;
    head_.store(h + 1, std::memory_order_relaxed);
  }

  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    const std::uint64_t h = recorded();
    return h > cap_ ? h - cap_ : 0;
  }

  /// Events still resident, oldest first (a contiguous suffix of history).
  std::vector<TraceEvent> snapshot() const {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t n = h < cap_ ? h : cap_;
    std::vector<TraceEvent> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i) {
      out.push_back(slots_[i & mask_]);
    }
    return out;
  }

 private:
  std::unique_ptr<TraceEvent[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::uint64_t seen_ = 0;  // single-writer sampling counter
  std::uint64_t cap_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t sample_mask_ = 0;
};

/// Everything a trace consumer (exporter, checker, metrics) needs, pulled
/// out of the live rings in one quiescent pass.
struct TraceData {
  struct VarInfo {
    std::uint32_t id = 0;
    std::uint32_t words = 0;
    std::string label;  ///< substrate kind ("jp", "am", ...) or bench label
  };

  std::vector<VarInfo> vars;
  std::vector<std::vector<TraceEvent>> per_pid;  ///< per-pid, ring order
  std::vector<std::uint64_t> dropped;            ///< per-pid evicted counts
  std::uint32_t sample_shift = 0;
  std::uint64_t tsc0 = 0;       ///< sink-construction timestamp (ticks)
  double ns_per_tick = 1.0;

  const VarInfo* var_info(std::uint32_t id) const {
    for (const auto& v : vars) {
      if (v.id == id) return &v;
    }
    return nullptr;
  }

  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const auto& v : per_pid) n += v.size();
    return n;
  }

  double ns_of(std::uint64_t tsc) const {
    return static_cast<double>(tsc - tsc0) * ns_per_tick;
  }
};

/// Owns one ring per process plus the traced-variable metadata. Multiple
/// variables (and the apps layer above them) share one sink: their events
/// interleave in each process's ring in program order, which is exactly the
/// per-pid history the checker replays.
class TraceSink {
 public:
  explicit TraceSink(std::uint32_t nprocs, TraceConfig cfg = {})
      : n_(nprocs), cfg_(cfg), rings_(new TraceRing[nprocs]) {
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      rings_[p].init(cfg.capacity, cfg.sample_shift);
    }
    tsc0_ = trace_now();
    ns0_ = wall_ns();
  }

  /// Hot path: called from the instrumented protocol under the owning
  /// process's id. Out-of-range pids (a bench binding more vars than the
  /// sink has rings never produces one, but be safe) are dropped.
  void record(EventKind k, std::uint32_t pid, std::uint32_t var,
              std::uint64_t tag, std::uint32_t arg) {
    if (pid >= n_) return;
    rings_[pid].record(k, static_cast<std::uint16_t>(pid), var, tag, arg);
  }

  /// Registers / overwrites a traced variable's metadata (cold path; a
  /// mutex is fine). Implementations self-describe in set_trace with their
  /// substrate kind; a bench may re-describe with a richer label afterwards
  /// — last writer wins, and the checker keys its per-substrate rules on a
  /// label *prefix*, so "jp w=4 t=8" still claims the jp bound.
  void describe_var(std::uint32_t id, std::uint32_t words,
                    std::string label) {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& v : vars_) {
      if (v.id == id) {
        v.words = words;
        v.label = std::move(label);
        return;
      }
    }
    vars_.push_back({id, words, std::move(label)});
  }

  std::uint32_t procs() const { return n_; }
  const TraceConfig& config() const { return cfg_; }

  /// Quiescent collection: call only after the traced threads joined (the
  /// join provides the happens-before for the plain event slots).
  TraceData collect() const {
    TraceData d;
    {
      std::lock_guard<std::mutex> g(mu_);
      d.vars = vars_;
    }
    d.per_pid.resize(n_);
    d.dropped.resize(n_);
    for (std::uint32_t p = 0; p < n_; ++p) {
      d.per_pid[p] = rings_[p].snapshot();
      d.dropped[p] = rings_[p].dropped();
    }
    d.sample_shift = cfg_.sample_shift;
    d.tsc0 = tsc0_;
    const std::uint64_t tsc1 = trace_now();
    const std::uint64_t ns1 = wall_ns();
    d.ns_per_tick = tsc1 > tsc0_ ? static_cast<double>(ns1 - ns0_) /
                                       static_cast<double>(tsc1 - tsc0_)
                                 : 1.0;
    return d;
  }

 private:
  static std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  const std::uint32_t n_;
  const TraceConfig cfg_;
  std::unique_ptr<TraceRing[]> rings_;
  mutable std::mutex mu_;
  std::vector<TraceData::VarInfo> vars_;
  std::uint64_t tsc0_ = 0;
  std::uint64_t ns0_ = 0;
};

#if defined(MWLLSC_TRACE)

/// The handle an instrumented class embeds. Compiled in: a (sink, var id)
/// pair; emit is one predictable null check plus the ring write.
class TraceHandle {
 public:
  void bind(TraceSink* sink, std::uint32_t var) {
    sink_ = sink;
    var_ = var;
  }
  bool bound() const { return sink_ != nullptr; }

  void emit(EventKind k, std::uint32_t pid, std::uint64_t tag = 0,
            std::uint32_t arg = 0) const {
    if (sink_) sink_->record(k, pid, var_, tag, arg);
  }

 private:
  TraceSink* sink_ = nullptr;
  std::uint32_t var_ = 0;
};

#else  // !MWLLSC_TRACE

/// Compiled out: an empty struct whose emit folds to nothing. The tests
/// static_assert the emptiness — the hot path carries zero trace overhead.
class TraceHandle {
 public:
  void bind(TraceSink*, std::uint32_t) {}
  bool bound() const { return false; }
  void emit(EventKind, std::uint32_t, std::uint64_t = 0,
            std::uint32_t = 0) const {}
};
static_assert(std::is_empty_v<TraceHandle>,
              "trace-off builds must carry no per-object trace state");

#endif  // MWLLSC_TRACE

}  // namespace mwllsc::obs
