// Anderson–Moir-style multiword LL/SC baseline: same announce/help
// *schedule* as the paper's algorithm (core/mwllsc.hpp), but helping copies
// the value instead of exchanging buffer ownership. Each potential helper q
// needs a private W-word handoff slot per helpee p that only q writes and
// only p reads — the O(N^2 W) handoff matrix the paper's ownership exchange
// eliminates. Time also pays: every LL keeps a private copy of the value it
// read (so a later successful SC can donate it), and every help is an O(W)
// copy instead of an O(1) exchange. Env::at marks each shared access, as
// in core (core/env.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/env.hpp"
#include "core/llsc.hpp"
#include "core/rows.hpp"
#include "obs/trace.hpp"
#include "util/checked.hpp"
#include "util/stats.hpp"

namespace mwllsc::baseline {

template <class LLSC, class Env = core::NoEnv>
class AmLLSC {
 public:
  /// The announce/help schedule serves an LL within O(N) successful SCs,
  /// each costing it one O(W) link/copy/validate round: (N+3)(W+3) plus
  /// the handoff copy and its bookkeeping, 2W+4.
  static constexpr std::uint32_t ll_step_bound(std::uint32_t n,
                                               std::uint32_t w) {
    return (n + 3) * (w + 3) + 2 * w + 4;
  }

  /// Throws std::invalid_argument, in every build and before anything is
  /// allocated, unless 1 <= nprocs <= 2^14 and words >= 1.
  AmLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(util::checked(nprocs, nprocs >= 1 && nprocs <= core::kMaxProcs,
                         "AmLLSC: nprocs must be in [1, 2^14]")),
        w_(util::checked(words, words >= 1, "AmLLSC: words must be >= 1")),
        x_(nprocs, nprocs),
        rows_(nprocs + 1, words),  // line-padded, as in core
        handoff_(new std::uint64_t[static_cast<std::size_t>(nprocs) *
                                   nprocs * words]),
        announce_(new AnnounceSlot[nprocs]),
        priv_(new Priv[nprocs]),
        lastval_(new std::uint64_t[static_cast<std::size_t>(nprocs) * words]),
        stats_(nprocs) {
    for (std::uint32_t p = 0; p < n_; ++p) {
      priv_[p].spare = p;
      announce_[p].a.store(pack_a(kIdle, 0, 0), std::memory_order_relaxed);
    }
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    me.seq = (me.seq + 1) & kSeqMask;  // the announce word holds 44 bits
    Env::at("ll:announce", p);
    // mwllsc-ordering: seq_cst(announce/help handshake of the copy-helping
    // baseline: the store precedes every later winner's pre-SC scan in the
    // total order, so a winner either sees us or linked before we announced)
    announce_[p].a.store(pack_a(kWaiting, 0, me.seq),
                         std::memory_order_seq_cst);
    trace_.emit(obs::EventKind::kLlStart, p, me.seq);
    for (;;) {
      Env::at("ll:link", p);
      const std::uint32_t b = core::buf_field(x_.ll(p));
      rows_.read<Env>(b, out, p, "ll:copy");
      std::atomic_thread_fence(std::memory_order_acquire);
      Env::at("ll:validate", p);
      if (x_.vl(p)) {
        std::uint64_t expect = pack_a(kWaiting, 0, me.seq);
        Env::at("ll:withdraw", p);
        // mwllsc-ordering: seq_cst(the withdraw races a helper's kHelped
        // CAS on this slot; the total order picks exactly one)
        if (!announce_[p].a.compare_exchange_strong(
                expect, pack_a(kIdle, 0, me.seq),
                std::memory_order_seq_cst)) {
          stats_.at(p).bump(stats_.at(p).ll_helped);  // donated but unused
          trace_.emit(obs::EventKind::kLlHelped, p, me.seq);
        }
        // Keep the private copy a future successful SC donates from.
        for (std::uint32_t i = 0; i < w_; ++i) lastrow(p)[i] = out[i];
        me.ll_buf = b;
        me.link_valid = true;
        stats_.at(p).bump(stats_.at(p).ll_ops);
        trace_.emit(obs::EventKind::kLlFast, p, x_.linked_tag(p), b);
        return;
      }
      Env::at("ll:check_slot", p);
      // mwllsc-ordering: seq_cst(re-read of our slot after a failed VL:
      // the SC that broke the link sits before this load in the total
      // order, so its helper's donation — if any — is visible here)
      const std::uint64_t a = announce_[p].a.load(std::memory_order_seq_cst);
      if (state_of_a(a) == kHelped && seq_of_a(a) == me.seq) {
        // The helper copied a consistent value into its handoff row for us;
        // it will not be rewritten until we announce again.
        const std::uint32_t q = donor_of_a(a);
        const std::uint64_t* h = handoff_row(q, p);
        for (std::uint32_t i = 0; i < w_; ++i) {
          Env::at("ll:copy_handoff", p);
          out[i] = h[i];
        }
        me.link_valid = false;
        auto& c = stats_.at(p);
        c.bump(c.ll_helped);
        c.bump(c.ll_used_helped_value);
        c.bump(c.ll_ops);
        trace_.emit(obs::EventKind::kLlRescue, p, me.seq, q);
        return;
      }
      trace_.emit(obs::EventKind::kLlRetry, p, me.seq);
    }
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit(obs::EventKind::kScAttempt, p, me.seq,
                me.link_valid ? 1 : 0);
    if (!me.link_valid) {
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    me.link_valid = false;
    rows_.write<Env>(me.spare, v, p);
    std::atomic_thread_fence(std::memory_order_release);
    const std::uint64_t t = x_.linked_tag(p);
    const std::uint32_t target = static_cast<std::uint32_t>((t + 1) % n_);
    Env::at("sc:probe", p);
    // mwllsc-ordering: seq_cst(the pre-SC probe pairs with the announce
    // store: a probe after the announce cannot miss kWaiting)
    std::uint64_t seen = announce_[target].a.load(std::memory_order_seq_cst);
    Env::at("sc:x", p);
    if (!x_.sc(p, me.spare)) {
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    c.bump(c.sc_success);
    trace_.emit(obs::EventKind::kScCommit, p, t + 1);
    me.spare = me.ll_buf;  // retire the previously-current buffer
    c.bump(c.bank_writes);
    trace_.emit(obs::EventKind::kBankWrite, p, t + 1, me.spare);
    if (target != p && state_of_a(seen) == kWaiting) {
      // Copy-based help: hand over the value we read at our LL (current
      // until our SC an instant ago) through our handoff row. O(W).
      std::uint64_t* h = handoff_row(p, target);
      const std::uint64_t* src = lastrow(p);
      for (std::uint32_t i = 0; i < w_; ++i) {
        Env::at("sc:help_copy", p);
        h[i] = src[i];
      }
      const std::uint64_t donated = pack_a(kHelped, p, seq_of_a(seen));
      Env::at("sc:help_mark", p);
      // mwllsc-ordering: seq_cst(the help install races the owner's
      // withdraw CAS; exactly one CAS on the slot wins the handoff)
      if (announce_[target].a.compare_exchange_strong(
              seen, donated, std::memory_order_seq_cst)) {
        c.bump(c.helps_given);
        trace_.emit(obs::EventKind::kHelpInstall, p, seq_of_a(donated),
                    target);
      }
    }
    return true;
  }

  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    if (!priv_[p].link_valid) return false;
    Env::at("vl", p);
    return x_.vl(p);
  }

  std::uint32_t words() const { return w_; }

  /// The abstract version: X's tag, the number of successful SCs so far.
  std::uint64_t version() const { return x_.current_tag(); }

  core::OpStatsSnapshot stats() const { return stats_.snapshot(); }

  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, w_, "am");
  }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("X descriptor (1-word LL/SC)", x_.shared_bytes());
    f.add("value buffers ((N+1) x W words, rows line-padded)",
          rows_.bytes());
    f.add("handoff matrix (N^2 x W words)",
          static_cast<std::size_t>(n_) * n_ * w_ * sizeof(std::uint64_t));
    f.add("announce/help slots (N)", n_ * sizeof(AnnounceSlot));
    f.add("per-process state (private)",
          n_ * sizeof(Priv) +
              static_cast<std::size_t>(n_) * w_ * sizeof(std::uint64_t) +
              x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

 private:
  // X holds the current buffer's bare index (core/rows.hpp).
  // Announce word: state(2) | donor pid(18) | seq(44).
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kWaiting = 1;
  static constexpr std::uint64_t kHelped = 2;

  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 44) - 1;

  static std::uint64_t pack_a(std::uint64_t state, std::uint32_t donor,
                              std::uint64_t seq) {
    return (seq << 20) | (static_cast<std::uint64_t>(donor) << 2) | state;
  }
  static std::uint64_t state_of_a(std::uint64_t a) { return a & 3; }
  static std::uint32_t donor_of_a(std::uint64_t a) {
    return core::buf_field(a >> 2);
  }
  static std::uint64_t seq_of_a(std::uint64_t a) { return a >> 20; }

  struct alignas(64) AnnounceSlot {
    std::atomic<std::uint64_t> a;
  };

  struct alignas(64) Priv {
    std::uint32_t spare = 0;
    std::uint32_t ll_buf = 0;
    std::uint64_t seq = 0;
    bool link_valid = false;
  };

  std::uint64_t* handoff_row(std::uint32_t helper, std::uint32_t helpee) {
    return handoff_.get() +
           (static_cast<std::size_t>(helper) * n_ + helpee) * w_;
  }

  std::uint64_t* lastrow(std::uint32_t p) {
    return lastval_.get() + static_cast<std::size_t>(p) * w_;
  }

  const std::uint32_t n_;
  const std::uint32_t w_;
  LLSC x_;
  core::BufferRows rows_;  ///< the N+1 value buffers
  std::unique_ptr<std::uint64_t[]> handoff_;
  std::unique_ptr<AnnounceSlot[]> announce_;
  std::unique_ptr<Priv[]> priv_;
  std::unique_ptr<std::uint64_t[]> lastval_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::baseline
