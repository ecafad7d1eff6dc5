// Wait-free process registration for the multiword LL/SC protocol
// (DESIGN.md §10). The core protocol is pid-indexed and fixed-N; this
// layer turns the fixed pid range into a pool real threads check slots out
// of and back into, so "N processes" becomes "at most N *concurrent*
// sessions" drawn from an unbounded thread population.
//
// Each slot is a generation-tagged word — state(2) | generation(62) — plus
// a heartbeat counter, both on the slot's own cache line. The lifecycle is
// a four-state machine, every transition bumping the generation so a slot
// handle from one incarnation can never act on a later one:
//
//     FREE --claim--> ACTIVE --release--> FREE
//                       |  \--abandon--> ORPHANED --reclaim--> FREE
//                       \--heartbeat stale--> RECLAIMING --> FREE
//
// Claiming is a bounded single pass of CAS attempts over the array (at
// most `capacity` CASes, wait-free); release is one CAS. Crash-stopped
// holders are detected two ways:
//   * cooperatively — abandon() marks the slot ORPHANED (the test/bench
//     seam that *simulates* a crash deterministically);
//   * by heartbeat — scan() watches each ACTIVE slot's heartbeat and
//     declares a holder dead after `suspect_scans` consecutive scans
//     without a beat. This is inherently heuristic: the caller must space
//     scans so that (suspect_scans x spacing) comfortably exceeds any
//     legitimate quiet period, and live holders should beat() when idle.
//     A holder whose release CAS fails learns it was presumed dead.
// Reclamation is two-phase: the scanner CASes the slot to RECLAIMING
// (exactly one scanner wins), runs the caller's cleanup — which settles
// the dead process's announce-slot help obligations (core reclaim_pid) so
// survivors' 4W+12 bound holds — and only then frees the slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/checked.hpp"
#include "util/thread_safety.hpp"

namespace mwllsc::membership {

class SlotRegistry {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kActive = 1;
  static constexpr std::uint64_t kOrphaned = 2;
  static constexpr std::uint64_t kReclaiming = 3;

  /// Throws std::invalid_argument, in every build and before anything is
  /// allocated, for capacity 0 (try_acquire divides by the capacity).
  explicit SlotRegistry(std::uint32_t capacity, std::uint32_t suspect_scans = 3)
      : cap_(util::checked(capacity, capacity >= 1,
                           "SlotRegistry: capacity must be >= 1")),
        suspect_scans_(suspect_scans < 1 ? 1 : suspect_scans),
        slots_(new Slot[capacity]),
        seen_(capacity) {}

  std::uint32_t capacity() const { return cap_; }

  /// Shared bytes the slot array occupies (for footprint accounting).
  std::size_t slot_bytes() const { return cap_ * sizeof(Slot); }

  /// One bounded pass of claim attempts, rotating the start index so
  /// concurrent joiners spread out. Returns the claimed slot id or kNone —
  /// at most `capacity` CAS attempts, no waiting, no retry loop per slot
  /// (a lost race just moves on; the caller owns the retry policy).
  std::uint32_t try_acquire() {
    const std::uint32_t start = rr_.fetch_add(1, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < cap_; ++i) {
      const std::uint32_t s = (start + i) % cap_;
      std::uint64_t w = slots_[s].word.load(std::memory_order_relaxed);
      if (state_of(w) != kFree) continue;
      // Acquire pairs with the releasing/reclaiming transition that freed
      // the slot: the new holder sees the previous incarnation's cleanup.
      if (slots_[s].word.compare_exchange_strong(
              w, pack(kActive, gen_of(w) + 1), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        // No staleness reset here: scan() re-keys its suspicion counter on
        // the generation, which this claim just bumped. Touching seen_
        // would race the scanner (seen_ is scan_mu_-guarded).
        return s;
      }
    }
    return kNone;
  }

  /// Releases a held slot. Returns false if the slot was reclaimed out
  /// from under the holder (a heartbeat false positive — see the header
  /// comment; the holder must treat its session as crashed, not retired).
  bool release(std::uint32_t s, std::uint64_t gen) {
    std::uint64_t w = pack(kActive, gen);
    return slots_[s].word.compare_exchange_strong(
        w, pack(kFree, gen + 1), std::memory_order_acq_rel,
        std::memory_order_relaxed);
  }

  /// Cooperative crash simulation: the holder walks away without cleaning
  /// up, leaving the slot for the reclaimer. Returns false if a concurrent
  /// reclaim already took the slot.
  bool abandon(std::uint32_t s, std::uint64_t gen) {
    std::uint64_t w = pack(kActive, gen);
    return slots_[s].word.compare_exchange_strong(
        w, pack(kOrphaned, gen + 1), std::memory_order_acq_rel,
        std::memory_order_relaxed);
  }

  /// Holder liveness signal. Call once per operation (the managed layer
  /// does) and periodically when idle. Only the slot's holder beats, so
  /// the bump is a relaxed load plus store, not a locked RMW. scan() only
  /// asks whether the value moved; a wrongly condemned holder racing its
  /// successor can lose a beat, never hide one.
  void beat(std::uint32_t s) {
    std::atomic<std::uint64_t>& hb = slots_[s].heartbeat;
    hb.store(hb.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }

  std::uint64_t generation(std::uint32_t s) const {
    return gen_of(slots_[s].word.load(std::memory_order_relaxed));
  }

  std::uint64_t state(std::uint32_t s) const {
    return state_of(slots_[s].word.load(std::memory_order_relaxed));
  }

  /// Approximate count of held slots (a metrics gauge, not a decision
  /// input — it races with claims and releases by design).
  std::uint32_t active() const {
    std::uint32_t n = 0;
    for (std::uint32_t s = 0; s < cap_; ++s) {
      const std::uint64_t st =
          state_of(slots_[s].word.load(std::memory_order_relaxed));
      if (st == kActive || st == kOrphaned) ++n;
    }
    return n;
  }

  /// Reclaim sweep. Recycles every ORPHANED slot, and — when
  /// `include_stale` — every ACTIVE slot whose heartbeat has not moved for
  /// `suspect_scans` consecutive scans. For each dead slot, `on_dead(slot)`
  /// runs strictly between the RECLAIMING transition and the FREE one, so
  /// cleanup (settling the dead pid's protocol obligations) is complete
  /// before any new holder can claim the slot. Returns slots reclaimed.
  ///
  /// Join-path callers pass include_stale=false: orphan recycling is
  /// always safe, but staleness needs scan *spacing* the caller controls —
  /// back-to-back scans from a burst of joiners must not be able to
  /// condemn a live-but-quiet holder.
  template <class OnDead>
  std::uint32_t scan(OnDead&& on_dead, bool include_stale = true) {
    util::MutexLock g(scan_mu_);
    std::uint32_t reclaimed = 0;
    for (std::uint32_t s = 0; s < cap_; ++s) {
      std::uint64_t w = slots_[s].word.load(std::memory_order_acquire);
      const std::uint64_t st = state_of(w);
      if (st == kOrphaned) {
        if (begin_reclaim(s, w)) {
          on_dead(s);
          finish_reclaim(s, gen_of(w) + 1);
          ++reclaimed;
        }
        continue;
      }
      if (st != kActive) {
        seen_[s].stale = 0;
        continue;
      }
      const std::uint64_t hb =
          slots_[s].heartbeat.load(std::memory_order_relaxed);
      ScanState& seen = seen_[s];
      if (seen.gen != gen_of(w) || seen.hb != hb) {
        seen.gen = gen_of(w);
        seen.hb = hb;
        seen.stale = 0;
        continue;
      }
      if (!include_stale) continue;
      if (++seen.stale < suspect_scans_) continue;
      if (begin_reclaim(s, w)) {
        on_dead(s);
        finish_reclaim(s, gen_of(w) + 1);
        ++reclaimed;
      }
    }
    return reclaimed;
  }

 private:
  static std::uint64_t pack(std::uint64_t state, std::uint64_t gen) {
    return (gen << 2) | state;
  }
  static std::uint64_t state_of(std::uint64_t w) { return w & 3; }
  static std::uint64_t gen_of(std::uint64_t w) { return w >> 2; }

  bool begin_reclaim(std::uint32_t s, std::uint64_t expect) {
    // Acq_rel: exactly one scanner wins the transition, and it observes
    // everything the dead holder published before its last transition.
    return slots_[s].word.compare_exchange_strong(
        expect, pack(kReclaiming, gen_of(expect) + 1),
        std::memory_order_acq_rel, std::memory_order_relaxed);
  }

  // Caller (scan) holds scan_mu_, so the seen_ write is serialized.
  void finish_reclaim(std::uint32_t s, std::uint64_t gen_mid) {
    seen_[s].stale = 0;
    // Release publishes the cleanup (core reclaim_pid) to the next
    // claimant's acquire CAS.
    slots_[s].word.store(pack(kFree, gen_mid + 1),
                         std::memory_order_release);
  }

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> word{pack(kFree, 0)};
    std::atomic<std::uint64_t> heartbeat{0};
  };

  /// Per-slot staleness bookkeeping, guarded by scan_mu_ (scans are a cold
  /// maintenance path; serializing them keeps the suspicion counters
  /// race-free without per-slot atomics).
  struct ScanState {
    std::uint64_t gen = ~std::uint64_t{0};
    std::uint64_t hb = 0;
    std::uint32_t stale = 0;
  };

  const std::uint32_t cap_;
  const std::uint32_t suspect_scans_;
  std::unique_ptr<Slot[]> slots_;
  // mwllsc-pad: exempt(cold claim-start rotor, bumped once per join
  // attempt; nothing hot shares its line)
  std::atomic<std::uint32_t> rr_{0};
  util::Mutex scan_mu_;
  std::vector<ScanState> seen_ MWLLSC_GUARDED_BY(scan_mu_);
};

/// RAII slot guard: releases the slot on destruction. Move-only; the test
/// and bench seam abandon() turns the guard into a simulated crash (the
/// slot is left ORPHANED for the reclaimer and the destructor does
/// nothing).
class ProcessSlot {
 public:
  ProcessSlot() = default;
  ProcessSlot(SlotRegistry* reg, std::uint32_t slot)
      : reg_(reg), slot_(slot), gen_(reg->generation(slot)) {}

  ProcessSlot(ProcessSlot&& o) noexcept { *this = std::move(o); }
  ProcessSlot& operator=(ProcessSlot&& o) noexcept {
    if (this != &o) {
      release();
      reg_ = o.reg_;
      slot_ = o.slot_;
      gen_ = o.gen_;
      o.reg_ = nullptr;
      o.slot_ = SlotRegistry::kNone;
    }
    return *this;
  }
  ProcessSlot(const ProcessSlot&) = delete;
  ProcessSlot& operator=(const ProcessSlot&) = delete;

  ~ProcessSlot() { release(); }

  bool valid() const { return reg_ != nullptr; }
  std::uint32_t id() const { return slot_; }
  std::uint64_t generation() const { return gen_; }

  void beat() {
    if (reg_) reg_->beat(slot_);
  }

  /// Returns false on a heartbeat false positive (the slot was reclaimed
  /// out from under us); the holder must not reuse the pid either way.
  bool release() {
    if (!reg_) return true;
    const bool ok = reg_->release(slot_, gen_);
    reg_ = nullptr;
    slot_ = SlotRegistry::kNone;
    return ok;
  }

  /// Simulated crash: walk away without releasing.
  void abandon() {
    if (!reg_) return;
    reg_->abandon(slot_, gen_);
    reg_ = nullptr;
    slot_ = SlotRegistry::kNone;
  }

 private:
  SlotRegistry* reg_ = nullptr;
  std::uint32_t slot_ = SlotRegistry::kNone;
  std::uint64_t gen_ = 0;
};

}  // namespace mwllsc::membership
