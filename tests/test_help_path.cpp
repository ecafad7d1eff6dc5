// Deterministic exercise of the two-phase LL and its help machinery, via
// a core::HookEnv step hook. With N = 2 the probe window is P = 2, so aged
// validation tolerates a drift of up to 2 successful SCs.
//
// An LL first tries announce-free (link, copy, re-check). Undisturbed, it
// never touches its announce word: no seq bump, nothing for a winner to
// help. To reach the announced round, the hook stalls the reader right
// after its first link (its first ll:copy step) and drives the other process
// through 4 successful SCs — drift 4 > P forces the fallback, and an even
// count keeps the probe parity of the replayed cases below. The hook then
// stalls the reader again right after its announced-round link
// (its first ll:recopy step) and drives a chosen number of further SCs:
//
//   1 SC  -> drift 1: aged validation passes, no donation was posted (the
//            winner of tag 5 probes its own slot), the reader returns the
//            buffer it linked — still intact, the ring has not recycled it;
//   2 SCs -> drift 2: aged validation passes, but the winner of tag 6
//            probed slot 0 and donated pre-SC, so the reader's withdraw
//            CAS fails and it adopts the donated buffer (ll_helped without
//            ll_used_helped_value);
//   3 SCs -> drift 3 > P: validation fails and the reader must find the
//            donation already posted (the 3W+6 guarantee), returning the
//            value that was current at the donor's help validation — what
//            the donor's own LL read before its donating SC.
//
// In every case the object must stay fully functional afterwards: the
// ownership exchanges preserved the buffer accounting. After the rescue,
// the consumed donation's HELPED word must go stale: the donated buffer
// rotates through X and the ring, and a later reclaim of the reader's pid
// must keep I1 exact.
//
// The same stalls drive the announced round's other exit: a reader whose
// pid is reclaimed while its round is stalled finds its seq moved at the
// slot check and returns zeroed words with its link broken. At N = 9 the
// announce and ring words span two lines each, and a reader on the second
// announce line is rescued the same way.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/mwllsc.hpp"
#include "sim/invariants.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

constexpr std::uint32_t kW = 4;
constexpr std::uint32_t kForceFallback = 4;  // SCs after the first link, > P

using Hooked = core::MwLLSC<llsc::Dw128LLSC, core::HookEnv>;

// Where the reader's pid is reclaimed, relative to the SCs injected after
// its announced-round link.
enum class Reclaim { kNever, kBeforeScs, kAfterScs };

struct HookState {
  Hooked* obj = nullptr;
  std::uint32_t reader = 0;     // the stalled LL's pid
  std::uint32_t writer = 1;     // the pid whose SCs interfere
  std::uint32_t force = kForceFallback;  // SCs after the first link, > P
  Reclaim reclaim = Reclaim::kNever;
  std::uint32_t sc_rounds = 0;  // successful SCs after the announced link
  bool forced = false;          // the first attempt was pushed past P
  bool fired = false;           // the announced round was stalled
  std::vector<std::uint64_t> before_donating_sc;  // value a rescue returns
  std::uint32_t sc_steps = 0;           // pid 1's steps in its current SC
  std::uint32_t donating_sc_steps = 0;  // ... in the SC that donated
  std::uint32_t other_sc_steps = 0;     // ... in its worst other SC
};

// The writer runs `rounds` LL/SC pairs, writing base*round + i into word i.
void drive(HookState* st, std::uint32_t rounds, std::uint64_t base) {
  std::vector<std::uint64_t> v(kW);
  for (std::uint64_t round = 1; round <= rounds; ++round) {
    st->obj->ll(st->writer, v.data());
    if (st->obj->stats().helps_given == 0) st->before_donating_sc = v;
    for (std::uint32_t i = 0; i < kW; ++i) v[i] = base * round + i;
    const std::uint64_t helps = st->obj->stats().helps_given;
    st->sc_steps = 0;
    CHECK(st->obj->sc(st->writer, v.data()));
    if (st->obj->stats().helps_given > helps) {
      st->donating_sc_steps = st->sc_steps;
    } else if (st->sc_steps > st->other_sc_steps) {
      st->other_sc_steps = st->sc_steps;
    }
  }
}

void interfere(void* ctx, const char* point, std::uint32_t pid) {
  auto* st = static_cast<HookState*>(ctx);
  if (pid != st->reader) {  // no reentrant interference from the writer
    if (std::strncmp(point, "sc:", 3) == 0) ++st->sc_steps;
    return;
  }
  if (!st->forced && std::strcmp(point, "ll:copy") == 0) {
    st->forced = true;
    // The reader has not announced, so none of these winners can donate.
    drive(st, st->force, 10);
    CHECK_EQ(st->obj->stats().helps_given, 0u);
  } else if (!st->fired && std::strcmp(point, "ll:recopy") == 0) {
    st->fired = true;
    // At N = 2 the winner of tag U probes slot U mod 2: tags 5 and 7
    // probe pid 1's own slot (no-op), tag 6 probes the stalled reader's
    // slot 0 and donates there, pre-SC.
    if (st->reclaim == Reclaim::kBeforeScs) st->obj->reclaim_pid(st->reader);
    drive(st, st->sc_rounds, 100);
    if (st->reclaim == Reclaim::kAfterScs) st->obj->reclaim_pid(st->reader);
  }
}

/// Runs LL(0) with its first attempt forced past P, then `sc_rounds`
/// successful SCs injected after its announced-round X link; returns the
/// value the LL produced.
std::vector<std::uint64_t> stalled_ll(Hooked& obj,
                                      HookState& st,
                                      std::uint32_t sc_rounds) {
  st.obj = &obj;
  st.sc_rounds = sc_rounds;
  core::HookEnv::install(&interfere, &st);
  std::vector<std::uint64_t> out(kW);
  obj.ll(st.reader, out.data());
  core::HookEnv::install(nullptr, nullptr);
  CHECK(st.forced);
  CHECK(st.fired);
  return out;
}

// I1 on the object's census right now: each of the N+R+1 buffers has
// one owner. Returns the census for further checks.
Hooked::Census check_i1(const Hooked& obj) {
  Hooked::Census c;
  obj.census(c);
  std::vector<int> owners;
  const std::string e = sim::i1_error(c, owners);
  if (!e.empty()) std::fprintf(stderr, "I1: %s\n", e.c_str());
  CHECK(e.empty());
  return c;
}

// The value the forced first attempt left current (tag 4).
constexpr std::uint64_t kAfterForce = 10 * kForceFallback;

// Drift 3 > P: the rescue path. The reader must return the donated
// snapshot with the helped/rescue/help-install counters firing exactly
// once, and ll_retries must stay zero.
void rescue_path() {
  Hooked obj(2, kW);
  HookState st;
  const auto out = stalled_ll(obj, st, 3);

  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 1u);
  CHECK_EQ(s.ll_helped, 1u);
  CHECK_EQ(s.ll_used_helped_value, 1u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK_EQ(s.bank_writes, kForceFallback + 3);

  // The rescue returned the value current at the donor's help validation
  // — exactly what the donor's LL read before its donating SC.
  CHECK(out == st.before_donating_sc);
  CHECK_EQ(out[0], 100u);
  // An SC that donates nothing makes exactly the accesses it made when
  // every process kept an exchange buffer: value copy (W), probe, X, ring
  // load, ring CAS. The donating SC adds the help copy (W), re-validation
  // and mark, then writes its value again (W) into the spare it took.
  CHECK_EQ(st.other_sc_steps, kW + 4);
  CHECK_EQ(st.donating_sc_steps, 3 * kW + 6);

  // A helped LL's link is already broken: an SC succeeded meanwhile.
  std::vector<std::uint64_t> tmp = out;
  CHECK(!obj.vl(0));
  CHECK(!obj.sc(0, tmp.data()));

  // The ownership exchanges must leave the buffer pool consistent: I1
  // holds, and both processes keep operating and observe each other's
  // updates.
  check_i1(obj);
  std::vector<std::uint64_t> v(kW);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    const std::uint32_t p = i & 1;
    obj.ll(p, v.data());
    const std::uint64_t expect_base = v[0];
    for (std::uint32_t k = 0; k < kW; ++k) CHECK_EQ(v[k], expect_base + k);
    for (std::uint32_t k = 0; k < kW; ++k) v[k] = 1000 + i + k;
    CHECK(obj.sc(p, v.data()));
  }
  obj.ll(0, v.data());
  CHECK_EQ(v[0], 1200u);
}

// Drift 2 = P: aged validation still passes — the linked buffer sat in
// the ring, unrecycled — but a donation raced in, so the withdraw CAS
// fails and the reader adopts the donated buffer without using its value.
void aged_pass_with_donation() {
  Hooked obj(2, kW);
  HookState st;
  const auto out = stalled_ll(obj, st, 2);

  // The snapshot the announced round linked: tag 4's value.
  for (std::uint32_t i = 0; i < kW; ++i) CHECK_EQ(out[i], kAfterForce + i);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 1u);
  CHECK_EQ(s.ll_helped, 1u);
  CHECK_EQ(s.ll_used_helped_value, 0u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK(!obj.vl(0));  // drift broke the link even though the value stands
  check_i1(obj);     // the reader adopted the donation as its spare

  // Still fully functional.
  std::vector<std::uint64_t> v(kW);
  obj.ll(1, v.data());
  CHECK_EQ(v[0], 200u);
  v[0] = 777;
  CHECK(obj.sc(1, v.data()));
}

// Drift 1 < P with no donation (tag 5's winner probes its own slot): the
// plain aged-validation pass, clean withdraw.
void aged_pass_plain() {
  Hooked obj(2, kW);
  HookState st;
  const auto out = stalled_ll(obj, st, 1);

  for (std::uint32_t i = 0; i < kW; ++i) CHECK_EQ(out[i], kAfterForce + i);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 0u);
  CHECK_EQ(s.ll_helped, 0u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK(!obj.vl(0));
}

// A consumed donation leaves A[0] reading HELPED with the donated buffer
// until pid 0's next announce overwrites it. That buffer is pid 0's spare
// only until its next SC installs it; from then on it rotates through X
// and the ring like any other. So neither the census nor reclaim_pid may
// read the stale word as a live donation once Priv::announced is clear:
// either would give the buffer a second owner, which I1 catches here.
void consumed_donation_goes_stale() {
  Hooked obj(2, kW);
  HookState st;
  stalled_ll(obj, st, 3);  // the rescue path: pid 0 consumes a donation
  CHECK_EQ(obj.stats().ll_used_helped_value, 1u);
  const std::uint32_t d = check_i1(obj).spare[0];

  // Pid 0's next SC installs d; pid 1's SC after it retires d to the ring.
  std::vector<std::uint64_t> v(kW);
  obj.ll(0, v.data());
  v[0] += 1;
  CHECK(obj.sc(0, v.data()));
  CHECK_EQ(check_i1(obj).current, d);
  obj.ll(1, v.data());
  v[0] += 1;
  CHECK(obj.sc(1, v.data()));
  const auto ring = check_i1(obj).ring;
  CHECK(std::find(ring.begin(), ring.end(), d) != ring.end());

  // Reclaim pid 0 with the stale HELPED word still in its slot.
  obj.reclaim_pid(0);
  obj.rebind_pid(0);
  CHECK(check_i1(obj).spare[0] != d);

  // The new holder of pid 0 works, and the pool stays exact.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint32_t p = i & 1;
    obj.ll(p, v.data());
    v[0] += 1;
    CHECK(obj.sc(p, v.data()));
    check_i1(obj);
  }
  CHECK_EQ(obj.stats().ll_retries, 0u);
}

// A reader reclaimed while its announced round is stalled, then pushed
// past P: the slot check finds its seq moved. Reclaimed before the SCs,
// the slot is IDLE and nobody donates; reclaimed after them, reclaim_pid
// adopted the donation as the pid's spare. Either way the copy failed
// validation and is not returned — the LL yields zeroed words — and the
// link is broken, ll_retries stays zero, and after a rebind
// the pid's next holder finds an exact buffer pool.
void reclaimed_mid_round(Reclaim when) {
  Hooked obj(2, kW);
  HookState st;
  st.reclaim = when;
  const auto out = stalled_ll(obj, st, 3);

  for (std::uint32_t i = 0; i < kW; ++i) CHECK_EQ(out[i], 0u);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, when == Reclaim::kAfterScs ? 1u : 0u);
  CHECK_EQ(s.ll_helped, 0u);
  CHECK_EQ(s.ll_used_helped_value, 0u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK_EQ(s.ll_ops, kForceFallback + 3 + 1);
  std::vector<std::uint64_t> v = out;
  CHECK(!obj.vl(0));
  CHECK(!obj.sc(0, v.data()));
  check_i1(obj);

  obj.rebind_pid(0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint32_t p = i & 1;
    obj.ll(p, v.data());
    CHECK_EQ(v[0], i == 0 ? 300u : 1000 + i - 1);
    v[0] = 1000 + i;
    CHECK(obj.sc(p, v.data()));
    check_i1(obj);
  }
}

// N = 9, so P = R = 16: the 9 announce words and the 16 ring words each
// span two lines. A single-thread lap of 2R commits over every pid moves
// each ring cell twice, across the line boundary, with I1 exact after
// every commit. Then pid 8 — the first word of the second announce line —
// is forced into its announced round and rescued by the winner that
// probes slot 8.
void second_line_words() {
  constexpr std::uint32_t kN = 9, kR = 16;
  Hooked obj(kN, kW);
  std::vector<std::uint64_t> v(kW);
  for (std::uint64_t i = 1; i <= 2 * kR; ++i) {
    const std::uint32_t p = static_cast<std::uint32_t>(i % kN);
    obj.ll(p, v.data());
    CHECK_EQ(v[0], i - 1);
    for (std::uint32_t k = 0; k < kW; ++k) v[k] = i;
    CHECK(obj.sc(p, v.data()));
    const auto c = check_i1(obj);
    CHECK_EQ(c.version, i);
    CHECK_EQ(c.ring.size(), std::size_t{kR});
  }
  CHECK_EQ(obj.stats().bank_writes, 2 * kR);

  // Tag 32 now. The first attempt drifts 17 > P; the announced round is
  // stalled across 17 more commits, tags 50..66, of which tag 56 probes
  // slot 56 mod 16 = 8 and donates.
  HookState st;
  st.reader = 8;
  st.writer = 0;
  st.force = kR + 1;
  const auto out = stalled_ll(obj, st, kR + 1);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 1u);
  CHECK_EQ(s.ll_used_helped_value, 1u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK(out == st.before_donating_sc);
  CHECK_EQ(out[0], 100u * (56 - 49 - 1));
  CHECK(!obj.vl(8));
  check_i1(obj);

  // Pid 8 keeps working from the donated spare.
  obj.ll(8, v.data());
  v[0] += 1;
  CHECK(obj.sc(8, v.data()));
  check_i1(obj);
}

// Counts the steps that open each LL phase.
struct PointCounts {
  std::uint32_t fast = 0;       // ll:link, the first attempt
  std::uint32_t announced = 0;  // ll:announce
  std::uint32_t read_x = 0;     // ll:relink, the announced round
};

void count_points(void* ctx, const char* point, std::uint32_t pid) {
  auto* c = static_cast<PointCounts*>(ctx);
  if (pid != 0) return;
  if (std::strcmp(point, "ll:link") == 0) ++c->fast;
  if (std::strcmp(point, "ll:announce") == 0) ++c->announced;
  if (std::strcmp(point, "ll:relink") == 0) ++c->read_x;
}

// An undisturbed LL stays announce-free: the announce store is the only
// write LL makes to its announce word and it is the ll:announce step,
// which never runs — so the word keeps its seq and state.
// The winners that probe slot 0 afterwards find it IDLE and help nobody,
// and the link stays valid.
void undisturbed_ll_never_announces() {
  Hooked obj(2, kW);
  PointCounts pc;
  core::HookEnv::install(&count_points, &pc);
  std::vector<std::uint64_t> v(kW);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    obj.ll(0, v.data());
    CHECK(obj.vl(0));
    for (std::uint32_t k = 0; k < kW; ++k) v[k] = i;
    CHECK(obj.sc(0, v.data()));
  }
  obj.ll(0, v.data());  // linked, held open while pid 1 commits
  for (std::uint32_t i = 0; i < 4; ++i) {  // tags 4..7: 4 and 6 probe slot 0
    obj.ll(1, v.data());
    v[0] += 1;
    CHECK(obj.sc(1, v.data()));
  }
  core::HookEnv::install(nullptr, nullptr);
  CHECK_EQ(pc.fast, 4u);
  CHECK_EQ(pc.announced, 0u);
  CHECK_EQ(pc.read_x, 0u);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 0u);
  CHECK_EQ(s.ll_helped, 0u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK(!obj.vl(0));  // pid 1's commits broke pid 0's open link
}

}  // namespace

int main() {
  rescue_path();
  aged_pass_with_donation();
  aged_pass_plain();
  consumed_donation_goes_stale();
  undisturbed_ll_never_announces();
  reclaimed_mid_round(Reclaim::kBeforeScs);
  reclaimed_mid_round(Reclaim::kAfterScs);
  second_line_words();
  std::printf("test_help_path: OK\n");
  return 0;
}
