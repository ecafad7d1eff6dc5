// Managed multiword LL/SC: the protocol object plus a process lifecycle
// (DESIGN.md §10). Threads join() to obtain a Session — an RAII pid lease
// drawn from a SlotRegistry — and call ll/sc/vl through it; retire (or
// crash) returns the pid to the pool. The managed object owns the
// crash-reclaim policy: reclaim_scan() recycles abandoned holders' slots
// and settles their announce-slot help obligations (core reclaim_pid) so
// the survivors' 4W+12 step bound is unaffected by the corpse. Only a
// session's own retire() or abandon() gives its pid up, so no sweep can
// hand a pid to a second holder while the first still drives it.
//
// Graceful degradation: when every slot is held, join() runs a bounded
// number of orphan-recycling retries and then falls over to a *degraded*
// session — a pid reserved at construction whose LL..SC window is
// serialized by a FIFO ticket lock. Degraded sessions keep the exact
// LL/SC/VL semantics (they run the same protocol object, so they
// linearize with everyone else on the one variable), but trade away the
// two properties the paper buys. They are not wait-free against each
// other: windows take turns in arrival order, so a degraded LL waits out
// at most the k-1 windows queued ahead of it, never another session's
// whole lease. And a session that stops inside its window, or while
// queued for it, wedges the degraded path (never the wait-free one). The
// jp protocol itself never blocks on the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "membership/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checked.hpp"
#include "util/stats.hpp"
#include "util/thread_safety.hpp"

namespace mwllsc::membership {

/// Point-in-time view of the lifecycle counters (mirrors the
/// mwllsc_membership_* metrics series).
struct MembershipSnapshot {
  std::uint64_t joins = 0;           ///< wait-free slot claims
  std::uint64_t degraded_joins = 0;  ///< joins that fell over to the lock
  std::uint64_t join_retries = 0;    ///< exhaustion retries (scan + re-claim)
  std::uint64_t retires = 0;         ///< clean releases
  std::uint64_t crash_reclaims = 0;  ///< dead holders' slots recycled
  std::uint64_t scans = 0;           ///< reclaim sweeps run
  std::uint32_t active = 0;          ///< slots currently held (approximate)
  std::uint32_t capacity = 0;        ///< slot pool size
  /// Degraded sessions holding or queued for the LL..SC window
  /// (approximate, like `active`).
  std::uint32_t degraded_queue = 0;
};

/// The protocol object (any type with the MwLLSC member surface) wrapped
/// with join/retire/crash lifecycle. Constructed with `slots` concurrent
/// wait-free sessions over `words` words; pid `slots` is reserved for the
/// degraded path.
template <class Impl>
class ManagedMwLLSC {
 public:
  /// RAII pid lease: holds its registry slot id and generation.
  /// Move-only; destruction retires, and a moved-from session's destructor
  /// does nothing. ll/sc/vl mirror the protocol's contract. abandon() is
  /// the crash-stop seam: the session walks away without cleanup and the
  /// slot stays ORPHANED until reclaim_scan().
  class Session {
   public:
    Session() = default;
    Session(Session&& o) noexcept { *this = std::move(o); }
    Session& operator=(Session&& o) noexcept MWLLSC_NO_TSA {
      if (this != &o) {
        retire();
        parent_ = o.parent_;
        slot_ = o.slot_;
        gen_ = o.gen_;
        degraded_ = o.degraded_;
        lock_held_ = o.lock_held_;
        o.parent_ = nullptr;
        o.lock_held_ = false;
      }
      return *this;
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() { retire(); }

    bool valid() const { return parent_ != nullptr; }
    bool degraded() const { return degraded_; }
    /// pid, ll, sc and vl throw std::logic_error, in every build, on a
    /// retired or moved-from session: its pid may already be someone
    /// else's.
    std::uint32_t pid() const {
      require_valid();
      return degraded_ ? parent_->reserved_pid() : slot_;
    }

    void ll(std::uint64_t* out) MWLLSC_NO_TSA {
      require_valid();
      if (degraded_) {
        // The lock spans LL..SC so the reserved pid's link can't be
        // clobbered by another degraded session.
        if (!lock_held_) {
          parent_->degraded_lock_.lock();
          lock_held_ = true;
        }
        parent_->impl_.ll(parent_->reserved_pid(), out);
        return;
      }
      parent_->impl_.ll(slot_, out);
    }

    bool sc(const std::uint64_t* in) MWLLSC_NO_TSA {
      require_valid();
      if (degraded_) {
        if (!lock_held_) return false;  // SC without a prior LL: no link
        const bool ok = parent_->impl_.sc(parent_->reserved_pid(), in);
        lock_held_ = false;
        parent_->degraded_lock_.unlock();
        return ok;
      }
      return parent_->impl_.sc(slot_, in);
    }

    bool vl() {
      require_valid();
      if (degraded_) {
        return lock_held_ && parent_->impl_.vl(parent_->reserved_pid());
      }
      return parent_->impl_.vl(slot_);
    }

    /// Clean retirement. Returns the release CAS's result, which is true
    /// for every live session: nothing but this session moves its slot
    /// out of ACTIVE. A retired or moved-from session returns true.
    bool retire() MWLLSC_NO_TSA {
      if (!parent_) return true;
      ManagedMwLLSC* p = parent_;
      parent_ = nullptr;
      if (degraded_) {
        if (lock_held_) {
          p->trace_.emit(obs::EventKind::kProcRetire, p->reserved_pid(), 0, 1);
          p->degraded_lock_.unlock();
          lock_held_ = false;
        } else if (p->trace_.bound()) {
          // The lock only serializes the emit on the reserved pid's
          // single-writer trace stream; untraced, there is nothing to
          // wait another session's LL..SC window out for.
          util::MutexLock g(p->degraded_lock_);
          p->trace_.emit(obs::EventKind::kProcRetire, p->reserved_pid(), 0, 1);
        }
        p->c_.retires.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Emit before release: after the release CAS the pid may instantly
      // be claimed by another thread, and pid streams are single-writer.
      p->trace_.emit(obs::EventKind::kProcRetire, slot_, gen_);
      const bool ok = p->reg_.release(slot_, gen_);
      p->c_.retires.fetch_add(1, std::memory_order_relaxed);
      return ok;
    }

    /// Crash-stop seam: walk away mid-whatever. A wait-free session's slot
    /// goes ORPHANED for the reclaimer; a degraded session releases the
    /// lock (a *real* crash inside the degraded window would wedge the
    /// degraded path — that is the documented cost of degradation, and
    /// simulating it would just deadlock the test).
    void abandon() MWLLSC_NO_TSA {
      if (!parent_) return;
      ManagedMwLLSC* p = parent_;
      parent_ = nullptr;
      if (degraded_) {
        if (lock_held_) {
          p->degraded_lock_.unlock();
          lock_held_ = false;
        }
        return;
      }
      p->reg_.abandon(slot_, gen_);
    }

   private:
    friend class ManagedMwLLSC;
    Session(ManagedMwLLSC* parent, std::uint32_t slot, std::uint64_t gen)
        : parent_(parent), slot_(slot), gen_(gen) {}
    explicit Session(ManagedMwLLSC* parent)
        : parent_(parent), degraded_(true) {}

    void require_valid() const {
      if (!parent_) {
        throw std::logic_error(
            "Session: operation on a retired or moved-from session");
      }
    }

    ManagedMwLLSC* parent_ = nullptr;
    std::uint32_t slot_ = SlotRegistry::kNone;
    std::uint64_t gen_ = 0;
    bool degraded_ = false;
    bool lock_held_ = false;
  };

  /// Orphan-recycling sweeps an exhausted join() runs before it degrades.
  static constexpr std::uint32_t kJoinRetries = 2;

  /// Throws std::invalid_argument, in every build and before anything is
  /// allocated, for slots == 0; Impl's constructor refuses the rest
  /// (words == 0, slots + 1 past its process limit).
  ManagedMwLLSC(std::uint32_t slots, std::uint32_t words)
      : slots_(util::checked(slots, slots >= 1,
                             "ManagedMwLLSC: slots must be >= 1")),
        impl_(slots + 1, words),
        reg_(slots) {}

  /// Acquires a session. Wait-free while slots are available (one bounded
  /// claim pass). Under exhaustion: up to kJoinRetries orphan-recycling
  /// sweeps, then the degraded lock-serialized session. Never fails,
  /// never blocks.
  Session join() {
    for (std::uint32_t attempt = 0;; ++attempt) {
      const std::uint32_t s = reg_.try_acquire();
      if (s != SlotRegistry::kNone) {
        // Sync the pid's private protocol state with however the previous
        // incarnation left the announce word (retired or reclaimed).
        impl_.rebind_pid(s);
        const std::uint64_t gen = reg_.generation(s);
        c_.joins.fetch_add(1, std::memory_order_relaxed);
        trace_.emit(obs::EventKind::kProcJoin, s, gen, 0);
        return Session(this, s, gen);
      }
      if (attempt >= kJoinRetries) break;
      c_.join_retries.fetch_add(1, std::memory_order_relaxed);
      reclaim_scan();
    }
    c_.degraded_joins.fetch_add(1, std::memory_order_relaxed);
    if (trace_.bound()) {
      // Serialize the emit: degraded sessions share the reserved pid's
      // trace stream, which is single-writer by contract. Untraced, the
      // join must not wait out another degraded session's LL..SC window.
      util::MutexLock g(degraded_lock_);
      trace_.emit(obs::EventKind::kProcJoin, reserved_pid(), 0, 1);
    }
    return Session(this);
  }

  /// Reclaim sweep over abandoned slots (see SlotRegistry::scan); safe
  /// to call at any rate from any thread. For every abandoned holder this
  /// settles the pid's announce-slot obligations — completing a posted
  /// donation's adoption or withdrawing a dangling announce — before the
  /// slot can be re-claimed, so a new holder inherits a quiescent pid and
  /// survivors' help bookkeeping stays exact. The flag is kept only so
  /// existing `reclaim_scan(false)` callers compile: no sweep takes a live
  /// holder's slot, so `true` throws std::invalid_argument in every build.
  std::uint32_t reclaim_scan(bool include_stale = false) {
    util::checked(include_stale, !include_stale,
                  "ManagedMwLLSC::reclaim_scan: only abandoned slots are "
                  "reclaimed; a live holder's pid is never taken");
    c_.scans.fetch_add(1, std::memory_order_relaxed);
    return reg_.scan([this](std::uint32_t s) {
      // Safe to touch pid s here: the slot is RECLAIMING, so the holder
      // has abandoned it and no new holder can claim it until the scan
      // frees it — the pid stream stays single-writer.
      impl_.reclaim_pid(s);
      c_.crash_reclaims.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::uint32_t words() const { return impl_.words(); }
  std::uint32_t slots() const { return slots_; }
  std::uint32_t reserved_pid() const { return slots_; }

  core::OpStatsSnapshot stats() const { return impl_.stats(); }

  util::Footprint footprint() const {
    util::Footprint f = impl_.footprint();
    f.add("membership slot registry (slots x 1 line)", reg_.slot_bytes());
    return f;
  }

  MembershipSnapshot membership() const {
    MembershipSnapshot s;
    s.joins = c_.joins.load(std::memory_order_relaxed);
    s.degraded_joins = c_.degraded_joins.load(std::memory_order_relaxed);
    s.join_retries = c_.join_retries.load(std::memory_order_relaxed);
    s.retires = c_.retires.load(std::memory_order_relaxed);
    s.crash_reclaims = c_.crash_reclaims.load(std::memory_order_relaxed);
    s.scans = c_.scans.load(std::memory_order_relaxed);
    s.active = reg_.active();
    s.capacity = reg_.capacity();
    s.degraded_queue = degraded_lock_.queued();
    return s;
  }

  /// Publishes the lifecycle counters as mwllsc_membership_* series.
  void export_metrics(obs::MetricsRegistry& m,
                      const std::string& labels) const {
    using obs::MetricsRegistry;
    const MembershipSnapshot s = membership();
    m.set_counter(MetricsRegistry::labeled("mwllsc_membership_joins_total",
                                           labels),
                  s.joins);
    m.set_counter(MetricsRegistry::labeled(
                      "mwllsc_membership_degraded_joins_total", labels),
                  s.degraded_joins);
    m.set_counter(MetricsRegistry::labeled(
                      "mwllsc_membership_join_retries_total", labels),
                  s.join_retries);
    m.set_counter(MetricsRegistry::labeled("mwllsc_membership_retires_total",
                                           labels),
                  s.retires);
    m.set_counter(MetricsRegistry::labeled(
                      "mwllsc_membership_crash_reclaims_total", labels),
                  s.crash_reclaims);
    m.set_counter(MetricsRegistry::labeled("mwllsc_membership_scans_total",
                                           labels),
                  s.scans);
    m.set_gauge(MetricsRegistry::labeled("mwllsc_membership_active", labels),
                static_cast<double>(s.active));
    m.set_gauge(MetricsRegistry::labeled("mwllsc_membership_capacity",
                                         labels),
                static_cast<double>(s.capacity));
    m.set_gauge(MetricsRegistry::labeled(
                    "mwllsc_membership_degraded_queue", labels),
                static_cast<double>(s.degraded_queue));
  }

  /// Binds both the lifecycle events and the protocol's own events to the
  /// same sink under the same variable id.
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    impl_.set_trace(sink, var);
  }

  Impl& impl() { return impl_; }
  SlotRegistry& registry() { return reg_; }

 private:
  /// Lifecycle counters, one line so the hot protocol state never false-
  /// shares with bookkeeping (alignas satisfies the R5 padding rule for
  /// every member).
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> joins{0};
    std::atomic<std::uint64_t> degraded_joins{0};
    std::atomic<std::uint64_t> join_retries{0};
    std::atomic<std::uint64_t> retires{0};
    std::atomic<std::uint64_t> crash_reclaims{0};
    std::atomic<std::uint64_t> scans{0};
  };

  const std::uint32_t slots_;
  Impl impl_;
  SlotRegistry reg_;
  /// Spans a degraded session's LL..SC window. Its counters start on
  /// lines of their own, so lock traffic never invalidates the line of
  /// reg_ that every join() and retire() reads.
  util::TicketLock degraded_lock_;
  Counters c_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::membership
