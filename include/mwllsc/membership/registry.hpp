// Wait-free process registration for the multiword LL/SC protocol
// (DESIGN.md §10). The core protocol is pid-indexed and fixed-N; this
// layer turns the fixed pid range into a pool real threads check slots out
// of and back into, so "N processes" becomes "at most N *concurrent*
// sessions" drawn from an unbounded thread population.
//
// Each slot is one generation-tagged word — state(2) | generation(62) — on
// its own cache line. The lifecycle is a four-state machine, every
// transition bumping the generation so a slot handle from one incarnation
// can never act on a later one:
//
//     FREE --claim--> ACTIVE --release--> FREE
//                       \--abandon--> ORPHANED --reclaim--> RECLAIMING --> FREE
//
// Only the holder moves its slot out of ACTIVE: release() when it retires,
// abandon() when it walks away without cleaning up (the seam that
// simulates a crash-stop deterministically). So a pid is never reissued
// while its holder may still drive it, which is the one-process-per-pid
// assumption the paper's wait-free bounds rest on. Claiming is a bounded
// single pass of CAS attempts over the array (at most `capacity` CASes,
// wait-free); release and abandon are one CAS each. Reclamation is
// two-phase: a sweep CASes an ORPHANED slot to RECLAIMING (exactly one of
// any concurrent sweeps wins), runs the caller's cleanup — which settles
// the dead process's announce-slot help obligations (core reclaim_pid) so
// survivors' 4W+12 bound holds — and only then frees the slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/checked.hpp"

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
  explicit SlotRegistry(std::uint32_t capacity)
      : cap_(util::checked(capacity, capacity >= 1,
                           "SlotRegistry: capacity must be >= 1")),
        slots_(new Slot[capacity]) {}

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
        return s;
      }
    }
    return kNone;
  }

  /// Releases a held slot. Returns false only if `gen` is not the slot's
  /// current ACTIVE incarnation (a second release of the same lease).
  bool release(std::uint32_t s, std::uint64_t gen) {
    std::uint64_t w = pack(kActive, gen);
    return slots_[s].word.compare_exchange_strong(
        w, pack(kFree, gen + 1), std::memory_order_acq_rel,
        std::memory_order_relaxed);
  }

  /// Cooperative crash simulation: the holder walks away without cleaning
  /// up, leaving the slot ORPHANED for the next sweep. Returns false only
  /// if `gen` is not the slot's current ACTIVE incarnation.
  bool abandon(std::uint32_t s, std::uint64_t gen) {
    std::uint64_t w = pack(kActive, gen);
    return slots_[s].word.compare_exchange_strong(
        w, pack(kOrphaned, gen + 1), std::memory_order_acq_rel,
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

  /// Reclaim sweep: recycles every ORPHANED slot and never touches an
  /// ACTIVE one. For each, `on_dead(slot)` runs strictly between the
  /// RECLAIMING transition and the FREE one, so cleanup (settling the dead
  /// pid's protocol obligations) is complete before any new holder can
  /// claim the slot. Sweeps may run concurrently: the RECLAIMING CAS gives
  /// each orphan to exactly one of them. Returns slots reclaimed.
  template <class OnDead>
  std::uint32_t scan(OnDead&& on_dead) {
    std::uint32_t reclaimed = 0;
    for (std::uint32_t s = 0; s < cap_; ++s) {
      std::uint64_t w = slots_[s].word.load(std::memory_order_acquire);
      if (state_of(w) != kOrphaned) continue;
      // Acq_rel: exactly one scanner wins the transition, and it observes
      // everything the dead holder published before abandoning.
      if (!slots_[s].word.compare_exchange_strong(
              w, pack(kReclaiming, gen_of(w) + 1), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        continue;
      }
      on_dead(s);
      // Release publishes the cleanup (core reclaim_pid) to the next
      // claimant's acquire CAS.
      slots_[s].word.store(pack(kFree, gen_of(w) + 2),
                           std::memory_order_release);
      ++reclaimed;
    }
    return reclaimed;
  }

 private:
  static std::uint64_t pack(std::uint64_t state, std::uint64_t gen) {
    return (gen << 2) | state;
  }
  static std::uint64_t state_of(std::uint64_t w) { return w & 3; }
  static std::uint64_t gen_of(std::uint64_t w) { return w >> 2; }

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> word{pack(kFree, 0)};
  };

  const std::uint32_t cap_;
  std::unique_ptr<Slot[]> slots_;
  // mwllsc-pad: exempt(cold claim-start rotor, bumped once per join
  // attempt; nothing hot shares its line)
  std::atomic<std::uint32_t> rr_{0};
};

}  // namespace mwllsc::membership
