// The single-word LL/SC building block ("the hardware primitive").
//
// Real hardware LL/SC is not exposed portably, so Dw128LLSC emulates an
// N-process single-word LL/SC variable with one 128-bit CAS (x86
// cmpxchg16b via libatomic) on a (64-bit value, 64-bit sequence tag)
// pair. The tag advances on every successful SC, which makes SC failures
// semantic (an SC fails iff another SC succeeded since the caller's LL)
// and defeats ABA: a stale link could only validate again after the tag
// wrapped, i.e. after 2^64 successful SCs — over 580 years at 10^9 SCs/s.
//
// Per-process link state (the word observed at the last LL) is private to
// the linking process and padded to its own cache line.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace mwllsc::llsc {

class Dw128LLSC {
 public:
  explicit Dw128LLSC(std::uint32_t nprocs, std::uint64_t initial = 0)
      : links_(new Link[nprocs]), n_(nprocs) {
    assert(nprocs >= 1);
    cell_.w.store(pack(initial, 0), std::memory_order_relaxed);
    for (std::uint32_t p = 0; p < nprocs; ++p) {
      links_[p].seen = kUnlinked;
    }
  }

  /// Load-linked: returns the current value and links p to it. A later
  /// sc/vl by p succeeds iff no successful SC (by anyone) intervened.
  std::uint64_t ll(std::uint32_t p) {
    const Word w = cell_.w.load(std::memory_order_acquire);
    links_[p].seen = w;
    return value_of(w);
  }

  /// Store-conditional: succeeds iff the variable still carries the exact
  /// (value, tag) pair p linked to; installs v with the next tag.
  bool sc(std::uint32_t p, std::uint64_t v) {
    Word expected = links_[p].seen;
    links_[p].seen = kUnlinked;  // the link is consumed either way
    if (expected == kUnlinked) return false;
    // mwllsc-ordering: seq_cst(the SC CAS is the protocol's linearization
    // point: every successful SC is globally ordered, which the announce
    // sweep and the tag arithmetic in core/mwllsc.hpp both assume)
    return cell_.w.compare_exchange_strong(expected,
                                           pack(v, tag_of(expected) + 1),
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed);
  }

  /// Validate: true iff p's link is still current. Does not consume it.
  bool vl(std::uint32_t p) const {
    const Word w = links_[p].seen;
    if (w == kUnlinked) return false;
    return cell_.w.load(std::memory_order_acquire) == w;
  }

  /// Unlinked read of the current value.
  std::uint64_t peek() const {
    return value_of(cell_.w.load(std::memory_order_acquire));
  }

  /// Tag of the word p linked to (for deterministic help scheduling).
  std::uint64_t linked_tag(std::uint32_t p) const {
    return tag_of(links_[p].seen);
  }

  std::uint64_t current_tag() const {
    return tag_of(cell_.w.load(std::memory_order_acquire));
  }

  std::size_t shared_bytes() const { return sizeof(Cell); }
  std::size_t private_bytes() const { return n_ * sizeof(Link); }

 private:
  using Word = unsigned __int128;  ///< tag in the high 64 bits
  // All-ones needs tag 2^64 - 1, i.e. 2^64 - 1 successful SCs.
  static constexpr Word kUnlinked = ~Word{0};

  static Word pack(std::uint64_t v, std::uint64_t tag) {
    return (static_cast<Word>(tag) << 64) | v;
  }
  static std::uint64_t value_of(Word w) {
    return static_cast<std::uint64_t>(w);
  }
  static std::uint64_t tag_of(Word w) {
    return static_cast<std::uint64_t>(w >> 64);
  }

  // A full line to itself: the CAS-hot variable must not share a cache
  // line with the read-mostly members (or the enclosing object's fields).
  struct alignas(64) Cell {
    std::atomic<Word> w;
  };
  struct alignas(64) Link {
    Word seen;  // only process p reads/writes links_[p]
  };

  Cell cell_;
  std::unique_ptr<Link[]> links_;
  std::uint32_t n_;
};

}  // namespace mwllsc::llsc
