// The paper's wait-free N-process W-word LL/SC variable, built from a
// single-word LL/SC building block (core/llsc.hpp) — full protocol: LL
// completes in at most 3W+6 memory accesses regardless of N, inside
// Theorem 1's 4W+12 bound, SC in O(W), VL in O(1), with O(NW) shared space.
//
// Layout. The W-word value always lives in one of N+R+1 buffers, where
// R = max(2, P) and P is N rounded up to a power of two. Process p owns a
// *spare*: it writes its next SC value into it, uses it as help-copy
// scratch, and offers it through its announce slot while an LL is
// announced (LL never writes the spare). R buffers rest in the global
// *retirement ring*; the remaining buffer is current. The 1-word LL/SC
// variable X holds the current buffer's bare index; its sequence tag is
// the abstract version: tag T's value is whatever the T-th successful SC
// installed.
//
// The value rows are line-padded (core/rows.hpp). The N announce words and
// the R ring words are packed eight to a 64-byte line (PackedWords). An
// announce word is written only around an announced round (announce,
// donation, withdraw), a ring word once per successful SC right after X's
// CAS, which already serializes its writers: neither array is worth a line
// per word (DESIGN.md §2).
//
// LL, first attempt (announce-free). LL(p) links X (tag T, buffer b),
// copies b, then re-reads X's tag: the snapshot is accepted if the tag
// advanced by AT MOST P. This is safe by ring aging alone: retired buffers
// pass through the ring and are only reused once at least R >= P further
// SCs have succeeded, so a buffer current at tag T is not rewritten until
// the global tag exceeds T+P, and any rewrite concurrent with the copy
// forces the re-check to observe drift > P and reject. A snapshot accepted
// with drift in [1, P] is still exactly version T's value and linearizes
// at the link instant; only drift 0 leaves the SC link intact
// (link_valid). The announce word is neither read nor written, so an LL
// nobody disturbs pays no fence and no CAS: link (1) + copy (W) +
// re-check (1) = W+2 accesses.
//
// LL, announced round (drift > P). The first attempt is abandoned and the
// paper's protocol runs: announce, link, copy, aged validation, then
// either withdraw the announce (drift <= P) or — past P again — take the
// donation a winner must already have posted (next paragraph). That round
// costs at most 2W+4 accesses, so the whole LL takes at most
// (W+2) + (2W+4) = 3W+6 <= 4W+12 and stays wait-free. Deviation from the
// paper: it announces on every LL; here only an LL that has already seen
// more than P successful SCs during one copy announces (DESIGN.md §2).
//
// Help path, pre-SC. If the announced round's validation fails (drift >=
// P+1), at least P successful SCs linked X *after* p's announce. The winner
// installing tag U probes announce slot U mod P before its SC, so those P
// consecutive winners sweep every slot including p's. A prober writes its
// value into its spare and probes; if it finds p WAITING it copies the
// current buffer into its spare over the value, re-validates its link
// (strict: the copy is untorn and the value is current at an instant
// inside p's LL — the prober wins its SC, so its link held throughout),
// and CASes A[p] from the exact WAITING word to <HELPED, copy, seq>,
// taking p's offered spare as its new spare. It then writes its value
// again, into that (possibly new) spare, and SCs X: the help path costs
// W extra steps, the undisturbed SC none. A failed re-validation means
// its SC is already doomed, so it returns false at once. Because the mark
// lands before the helper's SC installs, it is complete before p's
// validation can fail — so a failed validation finds HELPED already
// posted, and LL finishes by copying the donated buffer: announce (1) +
// link (1) + copy (W) + validate (1) + check A[p] (1) + donated copy (W)
// = 2W+4 accesses for the round, which runs once: there is no retry loop.
// Not finding HELPED means the guarantee broke; that exit is counted in
// ll_retries, which every test asserts stays zero.
//
// Failure model: crash-stop. reclaim_pid (membership layer) settles the
// slot of a process that has stopped, and a reclaimed pid takes no further
// step until rebind_pid reissues it. The membership layer enforces this
// (a Session's ops throw after abandon(), and only an abandoned slot is
// reclaimed), and the simulator never resumes a crashed fiber. So LL
// never checks whether its own slot was reclaimed under it.
//
// Retirement ring. A successful SC retires the previously-current buffer
// into ring cell (T+1) mod R — <buf, tag T+1> — taking the cell's old
// buffer (aged by >= R-1 intervening SCs) as its new spare. From the X
// commit until that swap the retiree is the writer's provisional spare, so
// every buffer keeps exactly one owner at every step (I1). Writers that
// stall so long they get lapped (the cell's tag moved ahead of theirs)
// keep their own retiree, which the lapping itself aged. All tags in a
// cell are congruent mod R, the CAS retries at most N times (each failure
// is a distinct slower winner resolving), and exactly one ring resolution
// — the "bank write" of invariant I2 — happens per successful SC.
//
// Linearization. An LL that accepts its own copy (first attempt or
// announced round) linearizes at its X link; a helped LL at
// the donor's help-validation instant (inside p's LL window). A helped or
// drifted LL returns with its link broken: VL reports false and SC fails
// in O(1), which is semantically exact — a successful SC intervened.
//
// Memory ordering. Buffer words are relaxed atomics; both the reader copy
// and the helper copy are validated seqlock-style (acquire fence before
// the tag re-check / link re-validation); donated contents are published
// by the helper's seq_cst mark CAS and need no reader-side validation —
// ownership transfer makes the buffer private to the reader. ABA on the
// announce word is bounded by the 44-bit seq; ring tags carry 46 bits.
//
// Steps. The Env parameter (core/env.hpp) is called right before every
// shared access, named by protocol point; NoEnv compiles it away. The
// simulator counts one step per call, which is what ll_impl_bound() and
// ll_step_bound() bound.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/env.hpp"
#include "core/llsc.hpp"
#include "core/rows.hpp"
#include "obs/trace.hpp"
#include "util/checked.hpp"
#include "util/stats.hpp"

namespace mwllsc::core {

template <class LLSC, class Env = NoEnv>
class MwLLSC {
 public:
  /// Theorem 1's LL bound: 4W+12 shared accesses, independent of N.
  static constexpr std::uint32_t ll_step_bound(std::uint32_t w) {
    return 4 * w + 12;
  }
  /// This implementation's worst LL: a first attempt that fell back
  /// (link + W-word copy + re-check = W+2) plus one announced round that
  /// needed rescue (announce + link + copy + validate + announce check +
  /// donated copy = 2W+4). An accepted first attempt is the W+2 alone.
  static constexpr std::uint32_t ll_impl_bound(std::uint32_t w) {
    return 3 * w + 6;
  }

  /// Throws std::invalid_argument, in every build and before anything is
  /// allocated, unless 1 <= nprocs <= 2^14 and words >= 1.
  MwLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(util::checked(nprocs, nprocs >= 1 && nprocs <= kMaxProcs,
                         "MwLLSC: nprocs must be in [1, 2^14]")),
        w_(util::checked(words, words >= 1, "MwLLSC: words must be >= 1")),
        p2_(next_pow2(nprocs)),
        ring_size_(p2_ < 2 ? 2 : p2_),
        x_(nprocs, nprocs + ring_size_),
        // Line-padded rows isolate buffers from each other (the
        // false-sharing fix E2/E3 measure).
        rows_(nprocs + ring_size_ + 1, words),
        // Control words pack eight to a line (PackedWords, DESIGN.md §2).
        ring_(ring_size_),
        announce_(nprocs),
        priv_(new Priv[nprocs]),
        stats_(nprocs) {
    // Buffer N+R is current (all-zero initial value); process p owns
    // spare p; ring cell j seeds buffer N+j with tag j-R (mod 2^46),
    // already "aged" for the first real lap.
    for (std::uint32_t p = 0; p < n_; ++p) {
      priv_[p].spare = p;
      announce_[p].store(pack_a(kIdle, p, 0), std::memory_order_relaxed);
    }
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      const std::uint64_t seed_tag =
          (std::uint64_t{j} - ring_size_) & kRingTagMask;
      ring_[j].store(pack_ring(n_ + j, seed_tag), std::memory_order_relaxed);
    }
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    trace_.emit(obs::EventKind::kLlStart, p, me.seq);
    // Announce-free first attempt: link, copy, re-check. Ring aging alone
    // makes an accepted snapshot safe; the announce below only buys the
    // helping guarantee, so an attempt that needs no help skips it.
    {
      std::uint64_t t0 = 0;
      std::uint32_t b = 0;
      const std::uint64_t drift = link_and_copy(p, false, out, t0, b);
      if (drift <= p2_) {
        me.ll_buf = b;
        me.link_valid = drift == 0;
        c.bump(c.ll_ops);
        trace_.emit(obs::EventKind::kLlFast, p, t0, b);
        return;
      }
    }
    // Drift > P: fall back to the announced protocol, which bounds the
    // rest of this LL at 2W+4 accesses through the helping guarantee.
    me.seq = (me.seq + 1) & kSeqMask;  // the announce word holds 44 bits
    // Announce, offering our spare to a prospective helper. LL never
    // writes the spare, so a helper may take it the moment it is posted.
    Env::at("ll:announce", p);
    // mwllsc-ordering: seq_cst(this store and the winners' pre-SC probes
    // of A[(T+1) mod P] share one total order, so a winner that misses
    // the announce must have linked before it — bounding drift at P tags)
    announce_[p].store(pack_a(kWaiting, me.spare, me.seq),
                       std::memory_order_seq_cst);
    me.announced = true;
    trace_.emit(obs::EventKind::kLlFallback, p, me.seq);
    std::uint64_t t0 = 0;
    std::uint32_t b = 0;
    const std::uint64_t drift = link_and_copy(p, true, out, t0, b);
    if (drift > p2_) {
      // Drift >= P+1: the P winners that linked after our announce swept
      // every announce slot pre-SC, so a donation is already posted.
      Env::at("ll:check_slot", p);
      // mwllsc-ordering: seq_cst(this load sits in the same total order as
      // the announce store and the winners' probes — the sweep argument
      // only holds inside that order)
      const std::uint64_t a = announce_[p].load(std::memory_order_seq_cst);
      if (state_of_a(a) == kHelped && seq_of_a(a) == me.seq) {
        // Return the donated snapshot. We own the buffer now; no
        // validation needed.
        const std::uint32_t d = buf_of_a(a);
        rows_.read<Env>(d, out, p, "ll:copy_donated");
        me.spare = d;  // the donor took the spare we offered
        me.announced = false;
        me.link_valid = false;  // a successful SC already intervened
        c.bump(c.ll_helped);
        c.bump(c.ll_used_helped_value);
        c.bump(c.ll_ops);
        trace_.emit(obs::EventKind::kLlRescue, p, me.seq, d);
        return;
      }
      // No donation: the help guarantee is broken. The copy failed
      // validation and may be torn, so it is not returned as a value; `out`
      // is zeroed and the link stays broken (drift > 0). Count it (every
      // checker fails on a nonzero ll_retries; the simulator reports its
      // repro schedule), then withdraw so no late donor takes the offered
      // spare.
      std::fill_n(out, w_, std::uint64_t{0});
      c.bump(c.ll_retries);
      trace_.emit(obs::EventKind::kLlRetry, p, me.seq);
    }
    // Drift <= P: aged validation passed. Buffers rest >= R >= P tags in
    // the ring before reuse, so the copy is an untorn snapshot of version
    // t0, linearized at the link. Withdraw the announce. The withdraw races
    // a winner's donation CAS on this slot; the total order picks exactly
    // one side of the ownership exchange.
    std::uint64_t expect = pack_a(kWaiting, me.spare, me.seq);
    Env::at("ll:withdraw", p);
    // mwllsc-ordering: seq_cst(withdraw vs donation CAS, one winner)
    if (!announce_[p].compare_exchange_strong(
            expect, pack_a(kIdle, me.spare, me.seq),
            std::memory_order_seq_cst)) {
      // A donation raced in — nothing else writes a posted slot while its
      // owner still takes steps. Our own copy stands; adopt the donated
      // buffer as our new spare — the donor took the one we offered.
      assert(state_of_a(expect) == kHelped && seq_of_a(expect) == me.seq);
      me.spare = buf_of_a(expect);
      c.bump(c.ll_helped);
      trace_.emit(obs::EventKind::kLlHelped, p, me.seq, buf_of_a(expect));
    }
    me.announced = false;
    me.ll_buf = b;
    me.link_valid = drift == 0;  // any drift already broke the link
    c.bump(c.ll_ops);
    trace_.emit(obs::EventKind::kLlFast, p, t0, b);
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit(obs::EventKind::kScAttempt, p, me.seq,
                me.link_valid ? 1 : 0);
    if (!me.link_valid) {               // helped/drifted LL or no LL: O(1)
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    me.link_valid = false;             // the link is consumed either way
    // Write the new value into our spare buffer — before the probe, since
    // probing first measured 4–5% slower on the contended workloads
    // (DESIGN.md §2). The rare help path below overwrites the spare with
    // its copy and writes the value again.
    rows_.write<Env>(me.spare, v, p);
    std::atomic_thread_fence(std::memory_order_release);
    const std::uint64_t t = x_.linked_tag(p);
    // Probe the help schedule *before* the SC: the winner of tag T+1
    // reads A[(T+1) mod P] (P a power of two — mask, no division), so
    // consecutive winners sweep all slots after any announce.
    const std::uint32_t target =
        static_cast<std::uint32_t>(t + 1) & (p2_ - 1);
    if (target != p && target < n_) {
      // The probe pairs with the announce store in the single total
      // order: a probe after the announce cannot miss kWaiting.
      Env::at("sc:probe", p);
      // mwllsc-ordering: seq_cst(probe half of the announce handshake)
      const std::uint64_t seen =
          announce_[target].load(std::memory_order_seq_cst);
      if (state_of_a(seen) == kWaiting) {
        // Pre-SC help: copy the (still linked) current buffer into our
        // spare over the value, re-validate the link seqlock-style — if it
        // holds, the copy is an untorn snapshot of version T taken after
        // the target announced — and donate it by marking A[target].
        copy_buf(me.ll_buf, me.spare, p);
        std::atomic_thread_fence(std::memory_order_acquire);
        Env::at("sc:help_validate", p);
        if (!x_.vl(p)) {
          // A successful SC intervened, so ours is doomed: fail now,
          // without rewriting a value nobody will install.
          trace_.emit(obs::EventKind::kScFail, p, me.seq);
          return false;
        }
        // The donation must precede our SC of tag T+1 in the total
        // order, and it races the owner's withdraw CAS on the same slot;
        // exactly one wins.
        Env::at("sc:help_mark", p);
        // mwllsc-ordering: seq_cst(donation before SC; races withdraw)
        std::uint64_t expect = seen;
        if (announce_[target].compare_exchange_strong(
                expect, pack_a(kHelped, me.spare, seq_of_a(seen)),
                std::memory_order_seq_cst)) {
          me.spare = buf_of_a(seen);  // take the offered spare, O(1)
          c.bump(c.helps_given);
          trace_.emit(obs::EventKind::kHelpInstall, p, seq_of_a(seen),
                      target);
        }
        // Our spare — the one taken in the exchange, or our own if the
        // withdraw won — no longer holds the value.
        rows_.write<Env>(me.spare, v, p);
        std::atomic_thread_fence(std::memory_order_release);
      }
    }
    Env::at("sc:x", p);
    if (!x_.sc(p, me.spare)) {
      trace_.emit(obs::EventKind::kScFail, p, me.seq);
      return false;
    }
    c.bump(c.sc_success);
    trace_.emit(obs::EventKind::kScCommit, p, t + 1);
    // The previously-current buffer is ours from the commit on: it is the
    // provisional spare until the ring swap trades it for an aged one.
    me.spare = me.ll_buf;
    me.retiring = (t + 1) & kRingTagMask;
    retire(p);
    return true;
  }

  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    if (!priv_[p].link_valid) return false;
    Env::at("vl", p);
    return x_.vl(p);  // O(1), independent of W
  }

  /// Validated partial read: copies words [first, first+count) of the
  /// current value into `out` in count+2 accesses — X's buffer and tag
  /// from one unlinked load, the copy, then the first attempt's aged
  /// re-check. Returns true iff the tag drifted by at most P, in which
  /// case ring aging makes the copy exactly version t0's words, linearized
  /// at the load; false (out unspecified) means more than P SCs committed
  /// during the read. Never touches p's link, announce word or Priv.
  /// Throws std::invalid_argument, in every build, unless count >= 1 and
  /// first + count <= W.
  bool try_read(std::uint32_t p, std::uint32_t first, std::uint32_t count,
                std::uint64_t* out) {
    assert(p < n_);
    util::check_range(first, count, w_,
                      "MwLLSC::try_read: need count >= 1, first+count <= W");
    return rows_.read_range<Env>(x_, first, count, out, p) <= p2_;
  }

  /// Crash-stop slot reclamation (membership layer, DESIGN.md §10).
  /// Settles the obligations a dead process left behind so its pid can be
  /// reissued. A ring swap it left pending (it died between its X commit
  /// and the swap) is finished on its behalf, so the retiree ages in the
  /// ring before reuse and the pid's next holder starts from an aged spare
  /// (I2 stays exact: one bank write per successful SC). A posted WAITING
  /// announce is withdrawn (so future winners stop donating into a slot
  /// nobody will read) and an unconsumed donation — HELPED while the dead
  /// process was still in its announced round — is adopted as its spare:
  /// the donor took the offered one, so the ownership census stays exact.
  /// A HELPED word from an earlier, consumed round is stale (its buffer
  /// has since rotated through X and the ring) and adopts nothing. The
  /// unconditional seq bump fences the slot against stale donation CASes
  /// keyed to the dead seq.
  /// Precondition: p takes no further steps (crash-stop); the pid is
  /// reissued only after rebind_pid. Returns true if an obligation (a
  /// pending ring swap, a posted announce or an unconsumed donation) was
  /// actually settled.
  bool reclaim_pid(std::uint32_t p) {
    assert(p < n_);
    Priv& me = priv_[p];
    const bool retiring = me.retiring != kNoRetire;
    const bool announced = me.announced;
    if (retiring) retire(p);
    // mwllsc-ordering: seq_cst(the withdraw-by-proxy races a winner's
    // donation CAS on this slot exactly like the owner's withdraw does;
    // the single total order picks one side of the ownership exchange)
    std::uint64_t a = announce_[p].load(std::memory_order_seq_cst);
    for (;;) {
      const std::uint32_t s =
          announced && state_of_a(a) == kHelped ? buf_of_a(a) : me.spare;
      const std::uint64_t next =
          pack_a(kIdle, s, (seq_of_a(a) + 1) & kSeqMask);
      // mwllsc-ordering: seq_cst(same handshake as the load above: one
      // winner between this withdraw-by-proxy and a racing donation)
      if (announce_[p].compare_exchange_weak(a, next,
                                             std::memory_order_seq_cst)) {
        me.spare = s;
        break;
      }
      // Lost to a donation landing on the dead WAITING word; the reloaded
      // word is HELPED and the next lap adopts it (at most one extra lap:
      // donations require WAITING, which the word never is again).
    }
    me.announced = false;
    trace_.emit(obs::EventKind::kProcCrashReclaim, p, seq_of_a(a));
    return retiring || announced;
  }

  /// Reissues pid p to a new owner after reclaim_pid or a graceful
  /// retirement. The spare stays the previous holder's (reclaim_pid
  /// already settled it); the seq comes from the announce word, which
  /// reclaim_pid bumped, and the link starts broken. Must not
  /// run concurrently with any operation by a previous owner of p; the
  /// membership layer guarantees this by only reissuing slots whose holder
  /// retired or was reclaimed.
  void rebind_pid(std::uint32_t p) {
    assert(p < n_);
    // mwllsc-ordering: seq_cst(reads the word settled by the retire-path
    // withdraw or reclaim_pid CAS in the same total order)
    const std::uint64_t a = announce_[p].load(std::memory_order_seq_cst);
    Priv& me = priv_[p];
    me.seq = seq_of_a(a);
    me.link_valid = false;
  }

  std::uint32_t words() const { return w_; }

  OpStatsSnapshot stats() const { return stats_.snapshot(); }

  /// The abstract version: X's tag, the number of successful SCs so far.
  std::uint64_t version() const { return x_.current_tag(); }

  /// Buffer-ownership view for the simulator's invariant checker
  /// (sim/invariants.hpp: I1 every buffer has exactly one owner, I2 one
  /// bank write per successful SC). It reads every process's private
  /// state unsynchronized, so call it only while no operation is running,
  /// as the single-threaded simulator does between steps.
  struct Census {
    std::uint64_t version = 0;
    std::uint32_t buffers = 0;  ///< N+R+1
    std::uint32_t current = 0;  ///< the buffer X names
    std::vector<std::uint32_t> spare;  ///< per pid: own, offered or donated
    std::vector<std::uint32_t> ring;   ///< per ring cell
    std::vector<std::uint64_t> sc_success, bank_writes;  ///< per pid
  };

  /// Fills `out` (its vectors are reused, so a per-step census does not
  /// allocate after the first).
  void census(Census& out) const {
    out.version = x_.current_tag();
    out.buffers = n_ + ring_size_ + 1;
    out.current = buf_field(x_.peek());
    out.spare.resize(n_);
    out.sc_success.resize(n_);
    out.bank_writes.resize(n_);
    for (std::uint32_t p = 0; p < n_; ++p) {
      // A donation not yet consumed — HELPED while the process is still in
      // its announced round — is the process's spare (the donor took the
      // offered one); otherwise the private one is, offered or not.
      // mwllsc-ordering: relaxed(debug view, no operation in flight)
      const std::uint64_t a = announce_[p].load(std::memory_order_relaxed);
      out.spare[p] = priv_[p].announced && state_of_a(a) == kHelped
                         ? buf_of_a(a)
                         : priv_[p].spare;
      out.sc_success[p] =
          stats_.at(p).sc_success.load(std::memory_order_relaxed);
      out.bank_writes[p] =
          stats_.at(p).bank_writes.load(std::memory_order_relaxed);
    }
    out.ring.resize(ring_size_);
    for (std::uint32_t j = 0; j < ring_size_; ++j) {
      // mwllsc-ordering: relaxed(debug view, no operation in flight)
      out.ring[j] = ring_buf_of(ring_[j].load(std::memory_order_relaxed));
    }
  }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("X descriptor (1-word LL/SC)", x_.shared_bytes());
    f.add("value buffers ((N+R+1) x W words, rows line-padded)",
          rows_.bytes());
    f.add("retirement ring (R words, 8 per line)", ring_.bytes());
    f.add("announce/help slots (N words, 8 per line)", announce_.bytes());
    f.add("per-process state (private)",
          n_ * sizeof(Priv) + x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

  /// Binds this variable to a trace sink (obs/trace.hpp); self-describes
  /// with the "jp" substrate prefix the offline checker keys its 4W+12 /
  /// zero-retry rules on. No-op when MWLLSC_TRACE is off.
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, w_, "jp");
  }

 private:
  // Announce slot word: state(2) | buf(18) | seq(44). Buffer fields are
  // kBufBits wide (core/rows.hpp), as is X's bare index.
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kWaiting = 1;
  static constexpr std::uint64_t kHelped = 2;

  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 44) - 1;

  static std::uint64_t pack_a(std::uint64_t state, std::uint32_t buf,
                              std::uint64_t seq) {
    return (seq << 20) | (static_cast<std::uint64_t>(buf) << 2) | state;
  }
  static std::uint64_t state_of_a(std::uint64_t a) { return a & 3; }
  static std::uint32_t buf_of_a(std::uint64_t a) { return buf_field(a >> 2); }
  static std::uint64_t seq_of_a(std::uint64_t a) { return a >> 20; }

  // Ring cell word: buf(18) | tag(46). The tag's 2^46 envelope bounds ABA
  // the same way the announce seq does.
  static constexpr std::uint32_t kRingTagBits = 46;
  static constexpr std::uint64_t kRingTagMask =
      (std::uint64_t{1} << kRingTagBits) - 1;

  static std::uint64_t pack_ring(std::uint32_t buf, std::uint64_t tag) {
    return (tag << kBufBits) | buf;
  }
  static std::uint32_t ring_buf_of(std::uint64_t r) { return buf_field(r); }
  static std::uint64_t ring_tag_of(std::uint64_t r) { return r >> kBufBits; }
  /// Priv::retiring when no ring swap is pending (ring tags are 46-bit).
  static constexpr std::uint64_t kNoRetire = ~std::uint64_t{0};

  static std::uint32_t next_pow2(std::uint32_t v) {
    std::uint32_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  struct alignas(64) Priv {  // touched only by the owning process
    std::uint32_t spare = 0;  ///< offered while announced (LL leaves it)
    std::uint32_t ll_buf = 0;
    std::uint64_t seq = 0;
    std::uint64_t retiring = kNoRetire;  ///< tag whose ring swap is pending
    bool link_valid = false;
    bool announced = false;  ///< in the announced round: A[p] is posted
                             ///< or holds a donation not yet consumed
  };

  /// One LL attempt: link X (tag t0, buffer b), copy b into out, re-read
  /// X's tag — W+2 accesses. Returns the drift; the caller accepts the
  /// copy iff it is at most P (aged validation). `announced` only names
  /// the steps: the first attempt's or the announced round's.
  std::uint64_t link_and_copy(std::uint32_t p, bool announced,
                              std::uint64_t* out, std::uint64_t& t0,
                              std::uint32_t& b) {
    Env::at(announced ? "ll:relink" : "ll:link", p);
    b = buf_field(x_.ll(p));
    t0 = x_.linked_tag(p);
    rows_.read<Env>(b, out, p, announced ? "ll:recopy" : "ll:copy");
    std::atomic_thread_fence(std::memory_order_acquire);
    Env::at(announced ? "ll:revalidate" : "ll:validate", p);
    return x_.current_tag() - t0;
  }

  /// The bank write of the SC that installed tag priv_[p].retiring: swap
  /// the retiree (the provisional spare) into ring cell tag mod R and take
  /// the cell's aged buffer as the spare (I2: exactly one resolution per
  /// successful SC). Runs at the end of sc(), or from reclaim_pid for a
  /// process that died before finishing it.
  void retire(std::uint32_t p) {
    Priv& me = priv_[p];
    const std::uint64_t mytag = me.retiring;
    const std::uint32_t retired = me.spare;
    std::atomic<std::uint64_t>& cell =
        ring_[static_cast<std::uint32_t>(mytag) & (ring_size_ - 1)];
    for (;;) {
      Env::at("sc:ring_load", p);
      const std::uint64_t rw = cell.load(std::memory_order_acquire);
      const std::uint64_t d = (mytag - ring_tag_of(rw)) & kRingTagMask;
      // All tags in a cell are congruent mod R, so d is a multiple of R:
      // d >= R with the high bits clear means the cell is genuinely
      // behind us — swap our retiree in and take the aged buffer out.
      if (d >= ring_size_ && !(d >> (kRingTagBits - 1))) {
        // The ring swap is the bank-write resolution: exactly one winner
        // per tag retires into the cell, which is what keeps invariant
        // I2 and the aging bound R.
        Env::at("sc:ring_cas", p);
        // mwllsc-ordering: seq_cst(one retiree per tag resolves the cell)
        std::uint64_t expect = rw;
        if (cell.compare_exchange_strong(expect, pack_ring(retired, mytag),
                                           std::memory_order_seq_cst)) {
          me.spare = ring_buf_of(rw);
          break;
        }
        // Lost to another winner resolving this cell; re-read (bounded:
        // each failure is a distinct winner with a smaller tag).
      } else {
        // Lapped: the cell moved past our tag while we stalled, so our
        // own retiree has already aged >= R tags — it stays the spare.
        break;
      }
    }
    me.retiring = kNoRetire;
    auto& c = stats_.at(p);
    c.bump(c.bank_writes);
    trace_.emit(obs::EventKind::kBankWrite, p, mytag, retired);
  }

  /// One step per word: the read is of the linked (validated) buffer, the
  /// write goes to the copier's own spare, which nobody reads.
  void copy_buf(std::uint32_t from, std::uint32_t to, std::uint32_t p) {
    const std::atomic<std::uint64_t>* src = rows_.row(from);
    std::atomic<std::uint64_t>* dst = rows_.row(to);
    for (std::uint32_t i = 0; i < w_; ++i) {
      Env::at("sc:help_copy", p);
      dst[i].store(src[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
  }

  const std::uint32_t n_;
  const std::uint32_t w_;
  const std::uint32_t p2_;        ///< N rounded up to a power of two (P)
  const std::uint32_t ring_size_; ///< R = max(2, P), a power of two
  LLSC x_;
  BufferRows rows_;  ///< the N+R+1 value buffers
  PackedWords ring_;      ///< R ring cells, word j = cell j
  PackedWords announce_;  ///< N announce slots, word p = A[p]
  std::unique_ptr<Priv[]> priv_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::core
