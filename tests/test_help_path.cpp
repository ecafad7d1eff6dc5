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
// must keep I1 exact. At N = 9 the announce and ring words span two lines
// each, and a reader on the second announce line is rescued the same way.
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

struct HookState {
  Hooked* obj = nullptr;
  std::uint32_t reader = 0;     // the stalled LL's pid
  std::uint32_t writer = 1;     // the pid whose SCs interfere
  std::uint32_t force = kForceFallback;  // SCs after the first link, > P
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
    drive(st, st->sc_rounds, 100);
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

// Records every step pid 0 takes.
void log_pid0(void* ctx, const char* point, std::uint32_t pid) {
  if (pid != 0) return;
  static_cast<std::vector<std::string>*>(ctx)->emplace_back(point);
}

// One LL by pid 0 that nobody disturbs: exactly link, the W-word copy and
// the re-check, W+2 steps, none of them on the announce word.
void undisturbed_ll(Hooked& obj, std::vector<std::string>& steps,
                    std::uint64_t* out) {
  steps.clear();
  obj.ll(0, out);
  std::vector<std::string> expect{"ll:link"};
  expect.insert(expect.end(), kW, "ll:copy");
  expect.emplace_back("ll:validate");
  CHECK_EQ(steps.size(), std::size_t{kW + 2});
  CHECK(steps == expect);
}

// An undisturbed LL stays announce-free: it never reads or writes its
// announce word, so the word keeps its seq and state. The winners that
// probe slot 0 afterwards find it IDLE and help nobody, and the link stays
// valid.
void undisturbed_ll_never_announces() {
  Hooked obj(2, kW);
  std::vector<std::string> steps;
  core::HookEnv::install(&log_pid0, &steps);
  std::vector<std::uint64_t> v(kW);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    undisturbed_ll(obj, steps, v.data());
    CHECK(obj.vl(0));
    for (std::uint32_t k = 0; k < kW; ++k) v[k] = i;
    CHECK(obj.sc(0, v.data()));
  }
  undisturbed_ll(obj, steps, v.data());  // held open while pid 1 commits
  for (std::uint32_t i = 0; i < 4; ++i) {  // tags 4..7: 4 and 6 probe slot 0
    obj.ll(1, v.data());
    v[0] += 1;
    CHECK(obj.sc(1, v.data()));
  }
  core::HookEnv::install(nullptr, nullptr);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 0u);
  CHECK_EQ(s.ll_helped, 0u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK(!obj.vl(0));  // pid 1's commits broke pid 0's open link
}

// try_read parked at its k-th "read:copy" step while pid 1 commits.
struct ReadHook {
  Hooked* obj = nullptr;
  std::uint32_t at_word = 0;  // park before copying this word
  std::uint32_t commits = 0;  // successful SCs landed there
  std::uint32_t copies = 0;   // read:copy steps seen so far
  std::uint64_t base = 0;     // the commits write base*round + i
};

void read_interfere(void* ctx, const char* point, std::uint32_t pid) {
  auto* st = static_cast<ReadHook*>(ctx);
  if (pid != 0 || std::strcmp(point, "read:copy") != 0) return;
  if (st->copies++ != st->at_word) return;
  std::vector<std::uint64_t> v(kW);
  for (std::uint64_t round = 1; round <= st->commits; ++round) {
    st->obj->ll(1, v.data());
    for (std::uint32_t i = 0; i < kW; ++i) v[i] = st->base * round + i;
    CHECK(st->obj->sc(1, v.data()));
  }
}

// try_read validates by the first attempt's aged rule: parked at any word
// of its copy, it returns true with version t0's words while at most P
// commits land, and false once P+1 do. Past P+1 the pool recycles the
// buffer it is copying (its new owner rewrites it), so some of those
// copies are torn, and none of them may come back true. The read never
// touches the reader's link or announce word, and takes count+2 steps.
void try_read_aged_validation() {
  constexpr std::uint32_t kP = 2;  // N = 2
  std::uint32_t torn = 0;
  for (std::uint32_t commits = 0; commits <= 4 * kP; ++commits) {
    for (std::uint32_t k = 0; k < kW; ++k) {
      Hooked obj(2, kW);
      std::vector<std::uint64_t> t0(kW), out(kW);
      for (std::uint32_t i = 0; i < kW; ++i) t0[i] = 7 + i;
      obj.ll(0, out.data());
      CHECK(obj.sc(0, t0.data()));
      obj.ll(0, out.data());  // link pid 0 at t0; the read must keep it
      ReadHook st{&obj, k, commits, 0, 1000 * (commits + 1)};
      core::HookEnv::install(&read_interfere, &st);
      const bool ok = obj.try_read(0, 0, kW, out.data());
      core::HookEnv::install(nullptr, nullptr);
      CHECK_EQ(ok, commits <= kP);
      if (ok) CHECK(out == t0);
      if (!ok && out[0] == t0[0] && out != t0) ++torn;  // t0's head, not tail
      CHECK_EQ(obj.vl(0), commits == 0);
      const auto s = obj.stats();
      CHECK_EQ(s.ll_ops, 2u + commits);  // the read is no LL
      CHECK_EQ(s.helps_given, 0u);       // nor an announce
      check_i1(obj);
    }
  }
  CHECK(torn > 0);  // the refusals above include real tears

  // Undisturbed: exactly read:link, one read:copy per word, read:validate.
  Hooked obj(2, kW);
  std::vector<std::string> steps;
  std::uint64_t two[2];
  core::HookEnv::install(&log_pid0, &steps);
  CHECK(obj.try_read(0, 1, 2, two));
  core::HookEnv::install(nullptr, nullptr);
  const std::vector<std::string> expect{"read:link", "read:copy", "read:copy",
                                        "read:validate"};
  CHECK(steps == expect);
}

}  // namespace

int main() {
  rescue_path();
  aged_pass_with_donation();
  aged_pass_plain();
  consumed_donation_goes_stale();
  undisturbed_ll_never_announces();
  second_line_words();
  try_read_aged_validation();
  std::printf("test_help_path: OK\n");
  return 0;
}
