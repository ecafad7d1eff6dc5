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
// ownership exchanges preserved the buffer accounting.
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/mwllsc.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

constexpr std::uint32_t kW = 4;
constexpr std::uint32_t kForceFallback = 4;  // SCs after the first link, > P

template <class Engine>
using Hooked = core::MwLLSC<Engine, core::HookEnv>;

template <class Engine>
struct HookState {
  Hooked<Engine>* obj = nullptr;
  std::uint32_t sc_rounds = 0;  // successful SCs after the announced link
  bool forced = false;          // the first attempt was pushed past P
  bool fired = false;           // the announced round was stalled
  std::vector<std::uint64_t> before_donating_sc;  // value a rescue returns
};

// pid 1 runs `rounds` LL/SC pairs, writing base*round + i into word i.
template <class Engine>
void drive(HookState<Engine>* st, std::uint32_t rounds, std::uint64_t base) {
  std::vector<std::uint64_t> v(kW);
  for (std::uint64_t round = 1; round <= rounds; ++round) {
    st->obj->ll(1, v.data());
    if (st->obj->stats().helps_given == 0) st->before_donating_sc = v;
    for (std::uint32_t i = 0; i < kW; ++i) v[i] = base * round + i;
    CHECK(st->obj->sc(1, v.data()));
  }
}

template <class Engine>
void interfere(void* ctx, const char* point, std::uint32_t pid) {
  auto* st = static_cast<HookState<Engine>*>(ctx);
  if (pid != 0) return;  // no reentrant interference from pid 1's own ops
  if (!st->forced && std::strcmp(point, "ll:copy") == 0) {
    st->forced = true;
    // The reader has not announced, so none of these winners can donate.
    drive(st, kForceFallback, 10);
    CHECK_EQ(st->obj->stats().helps_given, 0u);
  } else if (!st->fired && std::strcmp(point, "ll:recopy") == 0) {
    st->fired = true;
    // The winner of tag U probes slot U mod 2: tags 5 and 7 probe pid 1's
    // own slot (no-op), tag 6 probes the stalled reader's slot 0 and
    // donates there, pre-SC.
    drive(st, st->sc_rounds, 100);
  }
}

/// Runs LL(0) with its first attempt forced past P, then `sc_rounds`
/// successful SCs injected after its announced-round X link; returns the
/// value the LL produced.
template <class Engine>
std::vector<std::uint64_t> stalled_ll(Hooked<Engine>& obj,
                                      HookState<Engine>& st,
                                      std::uint32_t sc_rounds) {
  st.obj = &obj;
  st.sc_rounds = sc_rounds;
  core::HookEnv::install(&interfere<Engine>, &st);
  std::vector<std::uint64_t> out(kW);
  obj.ll(0, out.data());
  core::HookEnv::install(nullptr, nullptr);
  CHECK(st.forced);
  CHECK(st.fired);
  return out;
}

// The value the forced first attempt left current (tag 4).
constexpr std::uint64_t kAfterForce = 10 * kForceFallback;

// Drift 3 > P: the rescue path. The reader must return the donated
// snapshot with the helped/rescue/help-install counters firing exactly
// once, and the defensive retry arm must never run.
template <class Engine>
void rescue_path() {
  Hooked<Engine> obj(2, kW);
  HookState<Engine> st;
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

  // A helped LL's link is already broken: an SC succeeded meanwhile.
  std::vector<std::uint64_t> tmp = out;
  CHECK(!obj.vl(0));
  CHECK(!obj.sc(0, tmp.data()));

  // The ownership exchanges must leave the buffer pool consistent: both
  // processes keep operating and observe each other's updates.
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
template <class Engine>
void aged_pass_with_donation() {
  Hooked<Engine> obj(2, kW);
  HookState<Engine> st;
  const auto out = stalled_ll(obj, st, 2);

  // The snapshot the announced round linked: tag 4's value.
  for (std::uint32_t i = 0; i < kW; ++i) CHECK_EQ(out[i], kAfterForce + i);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 1u);
  CHECK_EQ(s.ll_helped, 1u);
  CHECK_EQ(s.ll_used_helped_value, 0u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK(!obj.vl(0));  // drift broke the link even though the value stands

  // Still fully functional.
  std::vector<std::uint64_t> v(kW);
  obj.ll(1, v.data());
  CHECK_EQ(v[0], 200u);
  v[0] = 777;
  CHECK(obj.sc(1, v.data()));
}

// Drift 1 < P with no donation (tag 5's winner probes its own slot): the
// plain aged-validation pass, clean withdraw.
template <class Engine>
void aged_pass_plain() {
  Hooked<Engine> obj(2, kW);
  HookState<Engine> st;
  const auto out = stalled_ll(obj, st, 1);

  for (std::uint32_t i = 0; i < kW; ++i) CHECK_EQ(out[i], kAfterForce + i);
  const auto s = obj.stats();
  CHECK_EQ(s.helps_given, 0u);
  CHECK_EQ(s.ll_helped, 0u);
  CHECK_EQ(s.ll_retries, 0u);
  CHECK(!obj.vl(0));
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
template <class Engine>
void undisturbed_ll_never_announces() {
  Hooked<Engine> obj(2, kW);
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

template <class Engine>
void help_path_for() {
  rescue_path<Engine>();
  aged_pass_with_donation<Engine>();
  aged_pass_plain<Engine>();
  undisturbed_ll_never_announces<Engine>();
}

}  // namespace

int main() {
  help_path_for<llsc::Dw128LLSC>();
  help_path_for<llsc::Packed64LLSC>();
  std::printf("test_help_path: OK\n");
  return 0;
}
