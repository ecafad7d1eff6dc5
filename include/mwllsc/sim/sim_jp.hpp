// Step machine for the paper's full protocol (core/mwllsc.hpp): 2N+R+1
// buffers, an announce-free first LL attempt, aged seqlock validation
// (accept drift <= P), pre-SC helping through the announce slots keyed to
// X's tag mod P, and the aged retirement ring — re-expressed as an explicit
// state machine so the simulation harness can interleave processes one
// memory access at a time.
//
// One step() call is one memory access of the protocol (copying a W-word
// buffer is W steps). The machine also carries *ghost* state the real
// implementation cannot afford: each announce slot remembers the abstract
// version whose value a donation holds, and each completed op reports its
// claimed linearization version, so the sequential-spec oracle
// (invariants.hpp) can validate every value against the unique write that
// produced it. Ghost state is observational only; it never influences a
// protocol transition.
//
// The abstract version is X's tag: version v's value is whatever the v-th
// successful SC installed. Invariants exposed to JpInvariantChecker:
//   I1  every buffer has exactly one owner (current / a spare / an
//       exchange side / a ring cell) — current_buf(), spare_of(),
//       exchange_buf_of(), ring_buf();
//   I2  exactly one bank write (ring retirement) per successful SC —
//       bank_writes_total() + pending_bank_writes() == sc_success_total()
//       == version() (the ring resolution is its own step after the X SC,
//       so it may lag the version by the in-flight retirements);
//   3W+6 no LL takes more steps than the implementation's bound (inside
//       the paper's 4W+12), and the defensive retry arm never fires
//       (ll_retries_total() == 0).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/harness.hpp"

namespace mwllsc::sim {

class SimJpSystem {
 public:
  SimJpSystem(std::uint32_t nprocs, std::uint32_t words,
              std::vector<std::uint64_t> init)
      : n_(nprocs),
        w_(words),
        p2_(next_pow2(nprocs)),
        ring_size_(p2_ < 2 ? 2 : p2_),
        nbufs_(2 * nprocs + ring_size_ + 1),
        buf_(static_cast<std::size_t>(nbufs_) * words, 0),
        slot_(nprocs),
        ring_(ring_size_),
        procs_(nprocs) {
    assert(nprocs >= 1 && words >= 1 && init.size() == words);
    x_ = X{0, 2 * nprocs + ring_size_, 0};
    for (std::uint32_t i = 0; i < w_; ++i) buf_row(x_.buf)[i] = init[i];
    for (std::uint32_t p = 0; p < n_; ++p) {
      procs_[p].spare = p;
      procs_[p].xbuf = n_ + p;
      slot_[p] = Slot{kIdle, n_ + p, 0, 0};
    }
    // Ring cell j seeds buffer 2N+j, already aged a full lap (tag j-R; the
    // sim's tags are unbounded 64-bit, so "j-R" wraps mod 2^64 for j < R
    // and the swap condition handles it like the real 46-bit envelope).
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      ring_[j] = RingCell{2 * n_ + j, std::uint64_t{j} - ring_size_};
    }
  }

  std::uint32_t n() const { return n_; }
  std::uint32_t w() const { return w_; }

  // ------------------------------------------------------------- workload
  bool idle(std::uint32_t p) const {
    return procs_[p].phase == Phase::kIdle;
  }

  void begin_ll(std::uint32_t p) {
    Proc& pr = procs_[p];
    assert(pr.phase == Phase::kIdle);
    pr.rec = OpRecord{};
    pr.rec.type = OpType::kLl;
    pr.rec.pid = p;
    pr.rec.start_version = x_.tag;
    pr.tmp.assign(w_, 0);
    pr.announced = false;  // the first attempt skips the announce
    pr.phase = Phase::kLlReadX;
  }

  void begin_sc(std::uint32_t p, std::vector<std::uint64_t> v) {
    Proc& pr = procs_[p];
    assert(pr.phase == Phase::kIdle && v.size() == w_);
    pr.rec = OpRecord{};
    pr.rec.type = OpType::kSc;
    pr.rec.pid = p;
    pr.rec.start_version = x_.tag;
    pr.rec.had_link = pr.link_valid;
    if (!pr.link_valid) {
      pr.phase = Phase::kScFailFast;  // O(1) semantic failure
      return;
    }
    pr.link_valid = false;  // the link is consumed either way
    pr.rec.value = v;       // ghost: what the oracle expects installed
    pr.scv = std::move(v);
    pr.idx = 0;
    pr.phase = Phase::kScCopyIn;
  }

  void begin_vl(std::uint32_t p) {
    Proc& pr = procs_[p];
    assert(pr.phase == Phase::kIdle);
    pr.rec = OpRecord{};
    pr.rec.type = OpType::kVl;
    pr.rec.pid = p;
    pr.rec.start_version = x_.tag;
    pr.rec.had_link = pr.link_valid && pr.linked;
    pr.phase = Phase::kVl;
  }

  // ----------------------------------------------- crash-stop adversary
  /// Crash-stop: process p takes no further steps, frozen wherever it is —
  /// possibly mid-LL, mid-donation, or between announce and withdraw. A
  /// crashed process keeps every invariant exact by construction: its
  /// buffers stay in the census under their current owners, and if it
  /// froze between the X SC and the ring swap it stays counted in
  /// pending_bank_writes().
  void crash(std::uint32_t p) {
    assert(!procs_[p].crashed);
    procs_[p].crashed = true;
    ++crashes_;
  }

  bool crashed(std::uint32_t p) const { return procs_[p].crashed; }

  /// Recycles a crashed process's slot, settling every obligation the dead
  /// process left behind (mirrors core reclaim_pid + rebind_pid):
  ///  - an in-flight bank write (crashed between the X SC and the ring
  ///    swap) is completed on its behalf, so I2 stays an equality;
  ///  - a posted WAITING announce is withdrawn, so winners stop donating
  ///    into a slot nobody reads;
  ///  - an unconsumed donation is adopted (the donor took the dead
  ///    process's offered exchange buffer; the donated buffer is the
  ///    exchange side now), so the I1 census stays exact.
  /// The seq bump fences the slot against donations keyed to the dead
  /// incarnation. The pid is live again afterwards: its abandoned op is
  /// simply gone (the workload restarts the interrupted micro-op).
  void reclaim(std::uint32_t p) {
    Proc& pr = procs_[p];
    assert(pr.crashed);
    // Complete the in-flight retirement first: the SC succeeded, so its
    // one bank write must still happen exactly once.
    if (pr.phase == Phase::kScSwapRead || pr.phase == Phase::kScSwapCas) {
      const std::uint64_t mytag = pr.link.tag + 1;
      RingCell& cell = ring_[ring_cell_of(mytag)];
      const std::uint64_t d = mytag - cell.tag;
      if (d >= ring_size_ && !(d >> 63)) {
        pr.spare = cell.buf;
        cell = RingCell{pr.retired, mytag};
      } else {
        pr.spare = pr.retired;  // lapped while dead; the retiree aged
      }
      ++bank_writes_;
    }
    // Settle the announce slot: withdraw a posted announce, adopt an
    // unconsumed donation.
    Slot& s = slot_[p];
    if (s.state == kHelped) pr.xbuf = s.buf;
    pr.seq += 1;
    s = Slot{kIdle, pr.xbuf, pr.seq, 0};
    pr.link_valid = false;
    pr.linked = false;
    pr.rec = OpRecord{};
    pr.phase = Phase::kIdle;
    pr.crashed = false;
    ++crash_reclaims_;
  }

  std::uint64_t crashes_total() const { return crashes_; }
  std::uint64_t crash_reclaims_total() const { return crash_reclaims_; }

  StepResult step(std::uint32_t p) {
    Proc& pr = procs_[p];
    assert(pr.phase != Phase::kIdle);
    assert(!pr.crashed && "crashed processes take no steps");
    ++pr.rec.steps;
    switch (pr.phase) {
      case Phase::kLlAnnounce:
        pr.seq += 1;
        slot_[p] = Slot{kWaiting, pr.xbuf, pr.seq, 0};
        pr.announced = true;
        pr.phase = Phase::kLlReadX;
        return {};
      case Phase::kLlReadX:
        pr.link = x_;  // the engine-level LL on X
        pr.linked = true;
        pr.idx = 0;
        pr.phase = Phase::kLlCopy;
        return {};
      case Phase::kLlCopy:
        pr.tmp[pr.idx] = buf_row(pr.link.buf)[pr.idx];
        if (++pr.idx == w_) pr.phase = Phase::kLlValidate;
        return {};
      case Phase::kLlValidate:
        // Aged validation: the snapshot stands if the tag advanced at most
        // P — ring aging guarantees the linked buffer was not rewritten.
        // The first attempt (not announced) then checks its own slot or,
        // past P, falls back to announce + a fresh link; the announced
        // round withdraws or takes the donation.
        pr.drift = x_.tag - pr.link.tag;
        if (!pr.announced) {
          if (pr.drift > p2_) ++ll_fallbacks_;
          pr.phase =
              (pr.drift <= p2_) ? Phase::kLlFastCheckSlot : Phase::kLlAnnounce;
        } else {
          pr.phase =
              (pr.drift <= p2_) ? Phase::kLlWithdraw : Phase::kLlCheckA;
        }
        return {};
      case Phase::kLlFastCheckSlot: {
        // Read our own announce word: a reclaim bumped its seq iff the pid
        // was judged dead mid-op (never, here — a reclaimed process
        // restarts idle — but the real LL pays this access, so it counts).
        const bool reclaimed = slot_[p].seq != pr.seq;
        pr.ll_buf = pr.link.buf;
        pr.link_valid = (pr.drift == 0) && !reclaimed;
        ++ll_fast_;
        pr.rec.success = true;
        pr.rec.value = pr.tmp;
        pr.rec.lin_version = pr.link.tag;  // linearized at the link
        return complete(pr);
      }
      case Phase::kLlWithdraw: {
        // CAS A[p]: WAITING -> IDLE. Failure means a donation raced in
        // after our validation; the fast-path value still stands (it
        // linearizes at the link), we just adopt the donated buffer as
        // our new exchange buffer — the donor took ours.
        Slot& s = slot_[p];
        if (s.state == kWaiting && s.seq == pr.seq) {
          s = Slot{kIdle, pr.xbuf, pr.seq, 0};
        } else {
          assert(s.state == kHelped && s.seq == pr.seq);
          pr.xbuf = s.buf;
          // Fold the slot retirement into the adopt: a stale HELPED word is
          // protocol-inert (probes want WAITING, marks CAS the exact word),
          // but the exchange-side ownership census reads the slot while it
          // is not IDLE, so it must mirror the adopted buffer from here on.
          s = Slot{kIdle, pr.xbuf, pr.seq, 0};
          pr.rec.helped = true;
        }
        pr.ll_buf = pr.link.buf;
        pr.link_valid = (pr.drift == 0);  // any drift already broke the link
        ++ll_fast_;
        pr.rec.success = true;
        pr.rec.value = pr.tmp;
        pr.rec.lin_version = pr.link.tag;
        return complete(pr);
      }
      case Phase::kLlCheckA: {
        // Drift >= P+1: the P winners that linked after our announce have
        // swept every slot pre-SC, so HELPED must already be posted.
        const Slot s = slot_[p];
        if (s.state == kHelped && s.seq == pr.seq) {
          pr.dbuf = s.buf;
          pr.ghost_lin = s.ghost_version;
          pr.idx = 0;
          pr.phase = Phase::kLlCopyDonated;
        } else {
          ++ll_retries_;  // defensive only; the checker flags this
          pr.phase = Phase::kLlReadX;
        }
        return {};
      }
      case Phase::kLlCopyDonated:
        // The donated buffer is privately owned now; no validation.
        pr.tmp[pr.idx] = buf_row(pr.dbuf)[pr.idx];
        if (++pr.idx < w_) return {};
        pr.xbuf = pr.dbuf;
        // Retire the HELPED word (see kLlWithdraw: census correctness).
        slot_[p] = Slot{kIdle, pr.xbuf, pr.seq, 0};
        pr.link_valid = false;  // a successful SC already intervened
        ++ll_helped_;
        pr.rec.success = true;
        pr.rec.helped = true;
        pr.rec.value = pr.tmp;
        pr.rec.lin_version = pr.ghost_lin;
        return complete(pr);
      case Phase::kScFailFast:
        pr.rec.success = false;
        pr.rec.link_version = kNoLink;
        pr.rec.version_at_sc = x_.tag;
        return complete(pr);
      case Phase::kScCopyIn:
        buf_row(pr.spare)[pr.idx] = pr.scv[pr.idx];
        if (++pr.idx == w_) pr.phase = Phase::kScProbe;
        return {};
      case Phase::kScProbe:
        // The winner of tag T+1 probes A[(T+1) mod P] — P consecutive
        // winners sweep every slot. Probing our own slot (we cannot be
        // WAITING) or a dummy index >= N skips the help arm.
        pr.target =
            static_cast<std::uint32_t>(pr.link.tag + 1) & (p2_ - 1);
        if (pr.target != p && pr.target < n_ &&
            slot_[pr.target].state == kWaiting) {
          pr.seen = slot_[pr.target];
          pr.idx = 0;
          pr.phase = Phase::kScHelpCopy;
        } else {
          pr.phase = Phase::kScX;
        }
        return {};
      case Phase::kScHelpCopy:
        // Pre-SC help: copy the linked current buffer into our exchange
        // buffer (scratch we own — we are not inside our own LL here).
        buf_row(pr.xbuf)[pr.idx] = buf_row(pr.link.buf)[pr.idx];
        if (++pr.idx == w_) pr.phase = Phase::kScHelpValidate;
        return {};
      case Phase::kScHelpValidate:
        // Strict re-validation: if X still matches our link, the copy is
        // an untorn snapshot of version link.tag, taken after the target
        // announced (we probed after linking... after the announce).
        pr.phase = (x_.tag == pr.link.tag) ? Phase::kScHelpMark : Phase::kScX;
        return {};
      case Phase::kScHelpMark: {
        // Ownership exchange: CAS A[target] from the exact WAITING word we
        // probed to HELPED(our copy), taking the offered buffer in return.
        // Ghost: the donated value is version link.tag's.
        Slot& s = slot_[pr.target];
        if (s.state == kWaiting && s.seq == pr.seen.seq &&
            s.buf == pr.seen.buf) {
          s = Slot{kHelped, pr.xbuf, s.seq, pr.link.tag};
          pr.xbuf = pr.seen.buf;
          ++helps_given_;
        }
        pr.phase = Phase::kScX;
        return {};
      }
      case Phase::kScX: {
        pr.rec.link_version = pr.link.tag;
        pr.rec.version_at_sc = x_.tag;
        const bool won = pr.linked && x_.tag == pr.link.tag;
        pr.linked = false;  // the engine link is consumed either way
        if (!won) {
          pr.rec.success = false;
          return complete(pr);
        }
        x_ = X{p, pr.spare, pr.link.tag + 1};
        ++sc_success_;
        // Retirement starts: the previously-current buffer is provisionally
        // our spare until the ring swap resolves (keeps I1 exact while the
        // bank write is in flight).
        pr.retired = pr.ll_buf;
        pr.spare = pr.retired;
        pr.rec.success = true;
        pr.phase = Phase::kScSwapRead;
        return {};
      }
      case Phase::kScSwapRead:
        pr.seen_ring = ring_[ring_cell_of(pr.link.tag + 1)];
        pr.phase = Phase::kScSwapCas;
        return {};
      case Phase::kScSwapCas: {
        // The bank write: swap our retiree into cell (T+1) mod R if the
        // cell is genuinely behind us; if we got lapped, our retiree has
        // already aged >= R tags and stays our spare.
        const std::uint64_t mytag = pr.link.tag + 1;
        RingCell& cell = ring_[ring_cell_of(mytag)];
        const std::uint64_t d = mytag - pr.seen_ring.tag;
        if (d >= ring_size_ && !(d >> 63)) {
          if (cell.buf == pr.seen_ring.buf && cell.tag == pr.seen_ring.tag) {
            pr.spare = cell.buf;
            cell = RingCell{pr.retired, mytag};
          } else {
            pr.phase = Phase::kScSwapRead;  // lost the CAS; re-read
            return {};
          }
        }
        ++bank_writes_;
        return complete(pr);
      }
      case Phase::kVl:
        pr.rec.success = pr.link_valid && pr.linked && x_.tag == pr.link.tag;
        pr.rec.link_version = pr.rec.had_link ? pr.link.tag : kNoLink;
        return complete(pr);
      case Phase::kIdle:
        break;
    }
    assert(false && "step on idle process");
    return {};
  }

  // ------------------------------------------------- scheduler / checker
  bool next_is_validate(std::uint32_t p) const {
    return procs_[p].phase == Phase::kLlValidate;
  }

  /// Phase probes for the crash-in-donation-window tests: the helper sits
  /// between its pre-SC donation copy/validation and the exchange CAS.
  bool next_is_help_mark(std::uint32_t p) const {
    return procs_[p].phase == Phase::kScHelpMark;
  }
  /// p's announce is posted (WAITING) — between announce and withdraw.
  bool announce_posted(std::uint32_t p) const {
    return slot_[p].state == kWaiting;
  }
  /// An unconsumed donation sits in p's slot.
  bool donation_posted(std::uint32_t p) const {
    return slot_[p].state == kHelped;
  }

  /// Version advances a doomed validation needs: the adversary must land
  /// P+1 successful SCs past the victim's link to defeat aged validation.
  std::uint64_t doom_delta() const { return p2_ + 1; }

  std::uint32_t steps_in_flight(std::uint32_t p) const {
    return idle(p) ? 0 : procs_[p].rec.steps;
  }

  std::uint64_t version() const { return x_.tag; }

  std::vector<std::uint64_t> current_value() const {
    const std::uint64_t* row = buf_row(x_.buf);
    return std::vector<std::uint64_t>(row, row + w_);
  }

  /// The paper's Theorem 1 bound, 4W+12 — independent of N.
  static std::uint32_t ll_step_bound(std::uint32_t /*n*/, std::uint32_t w) {
    return 4 * w + 12;
  }

  /// The implemented bound: a first attempt that fell back (link + W-word
  /// copy + re-check = W+2) plus one announced round that needed rescue
  /// (announce + link + W-word copy + validate + announce check + donated
  /// W-word copy = 2W+4) = 3W+6 steps. An accepted first attempt is W+3.
  static std::uint32_t ll_impl_bound(std::uint32_t w) { return 3 * w + 6; }

  std::uint32_t num_bufs() const { return nbufs_; }
  std::uint32_t current_buf() const { return x_.buf; }
  std::uint32_t spare_of(std::uint32_t p) const { return procs_[p].spare; }

  /// The buffer process p owns through its exchange side: the slot's buffer
  /// while an announce/donation is posted, else the private xbuf (which the
  /// slot's stale IDLE word mirrors).
  std::uint32_t exchange_buf_of(std::uint32_t p) const {
    const Slot& s = slot_[p];
    return s.state == kIdle ? procs_[p].xbuf : s.buf;
  }

  std::uint32_t ring_size() const { return ring_size_; }
  std::uint32_t ring_buf(std::uint32_t j) const { return ring_[j].buf; }
  std::uint32_t probe_window() const { return p2_; }

  std::uint64_t bank_writes_total() const { return bank_writes_; }
  std::uint64_t sc_success_total() const { return sc_success_; }
  std::uint64_t helps_given_total() const { return helps_given_; }
  std::uint64_t ll_fast_total() const { return ll_fast_; }
  /// LLs whose announce-free first attempt saw drift > P and announced.
  std::uint64_t ll_fallbacks_total() const { return ll_fallbacks_; }
  std::uint64_t ll_helped_total() const { return ll_helped_; }
  std::uint64_t ll_retries_total() const { return ll_retries_; }

  /// Successful SCs whose ring retirement has not resolved yet (their
  /// owner sits between the X step and the swap CAS).
  std::uint64_t pending_bank_writes() const {
    std::uint64_t pending = 0;
    for (const Proc& pr : procs_) {
      if (pr.phase == Phase::kScSwapRead || pr.phase == Phase::kScSwapCas) {
        ++pending;
      }
    }
    return pending;
  }

 private:
  enum class Phase : std::uint8_t {
    kIdle,
    kLlAnnounce,
    kLlReadX,
    kLlCopy,
    kLlValidate,
    kLlFastCheckSlot,
    kLlWithdraw,
    kLlCheckA,
    kLlCopyDonated,
    kScFailFast,
    kScCopyIn,
    kScProbe,
    kScHelpCopy,
    kScHelpValidate,
    kScHelpMark,
    kScX,
    kScSwapRead,
    kScSwapCas,
    kVl,
  };

  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kWaiting = 1;
  static constexpr std::uint8_t kHelped = 2;
  static constexpr std::uint64_t kNoLink = ~std::uint64_t{0};

  static std::uint32_t next_pow2(std::uint32_t v) {
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::uint32_t ring_cell_of(std::uint64_t tag) const {
    return static_cast<std::uint32_t>(tag) & (ring_size_ - 1);
  }

  /// The 1-word LL/SC variable X: descriptor <pid, buf> plus the sequence
  /// tag, which doubles as the abstract version.
  struct X {
    std::uint32_t pid = 0;
    std::uint32_t buf = 0;
    std::uint64_t tag = 0;
  };

  /// Announce slot plus ghost: the abstract version whose value a donated
  /// buffer holds (set by the donor, read only by the oracle).
  struct Slot {
    std::uint8_t state = kIdle;
    std::uint32_t buf = 0;
    std::uint64_t seq = 0;
    std::uint64_t ghost_version = 0;
  };

  struct RingCell {
    std::uint32_t buf = 0;
    std::uint64_t tag = 0;
  };

  struct Proc {
    Phase phase = Phase::kIdle;
    bool crashed = false;
    // Durable protocol state.
    std::uint32_t spare = 0;
    std::uint32_t xbuf = 0;
    std::uint32_t ll_buf = 0;
    std::uint64_t seq = 0;
    bool link_valid = false;
    bool linked = false;
    bool announced = false;  ///< current LL is past its first attempt
    X link;
    // In-flight op state.
    OpRecord rec;
    std::uint32_t idx = 0;
    std::uint32_t target = 0;
    std::uint32_t dbuf = 0;
    std::uint32_t retired = 0;
    std::uint64_t drift = 0;
    std::uint64_t ghost_lin = 0;
    Slot seen;
    RingCell seen_ring;
    std::vector<std::uint64_t> tmp;
    std::vector<std::uint64_t> scv;
  };

  StepResult complete(Proc& pr) {
    pr.rec.end_version = x_.tag;
    pr.phase = Phase::kIdle;
    StepResult r;
    r.completed = true;
    r.rec = pr.rec;
    return r;
  }

  std::uint64_t* buf_row(std::uint32_t b) {
    return buf_.data() + static_cast<std::size_t>(b) * w_;
  }
  const std::uint64_t* buf_row(std::uint32_t b) const {
    return buf_.data() + static_cast<std::size_t>(b) * w_;
  }

  std::uint32_t n_;
  std::uint32_t w_;
  std::uint32_t p2_;        ///< N rounded up to a power of two (P)
  std::uint32_t ring_size_; ///< R = max(2, P), a power of two
  std::uint32_t nbufs_;
  X x_;
  std::vector<std::uint64_t> buf_;
  std::vector<Slot> slot_;
  std::vector<RingCell> ring_;
  std::vector<Proc> procs_;
  std::uint64_t sc_success_ = 0;
  std::uint64_t bank_writes_ = 0;
  std::uint64_t helps_given_ = 0;
  std::uint64_t ll_fast_ = 0;
  std::uint64_t ll_fallbacks_ = 0;
  std::uint64_t ll_helped_ = 0;
  std::uint64_t ll_retries_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t crash_reclaims_ = 0;
};

}  // namespace mwllsc::sim
