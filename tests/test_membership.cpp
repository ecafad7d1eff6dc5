// The process lifecycle layer (DESIGN.md §10): SlotRegistry state machine,
// the Session RAII lease, ManagedMwLLSC join/retire/crash-reclaim over the
// real protocol object, the rule that only a pid's holder gives it up,
// graceful degradation under slot exhaustion, the degraded window's FIFO
// ticket lock (mutual exclusion, arrival order, unlock from another
// thread), lifecycle trace events through the offline checker, and a
// multithreaded churn run (threads > slots) with cooperative crashes and a
// maintenance reclaimer.
// Compiled with MWLLSC_TRACE so the lifecycle events are observable.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/mwllsc.hpp"
#include "membership/managed.hpp"
#include "membership/registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_check.hpp"
#include "util/thread_safety.hpp"

using namespace mwllsc;
using membership::ManagedMwLLSC;
using membership::SlotRegistry;

namespace {

using Jp = core::MwLLSC<llsc::Dw128LLSC>;
using Managed = ManagedMwLLSC<Jp>;

// ---------------------------------------------------------- slot registry

void registry_state_machine() {
  SlotRegistry reg(2);
  CHECK_EQ(reg.capacity(), 2u);
  CHECK_EQ(reg.active(), 0u);

  const std::uint32_t a = reg.try_acquire();
  const std::uint32_t b = reg.try_acquire();
  CHECK(a != SlotRegistry::kNone && b != SlotRegistry::kNone && a != b);
  CHECK_EQ(reg.active(), 2u);
  CHECK_EQ(reg.try_acquire(), SlotRegistry::kNone);  // exhausted: bounded

  // Clean release: CAS on the claimed generation; a second release of the
  // same incarnation must fail (the generation moved on).
  const std::uint64_t gen_a = reg.generation(a);
  CHECK(reg.release(a, gen_a));
  CHECK(!reg.release(a, gen_a));
  CHECK_EQ(reg.active(), 1u);

  // Re-claim bumps the generation past the released one.
  const std::uint32_t a2 = reg.try_acquire();
  CHECK(a2 != SlotRegistry::kNone);
  CHECK(reg.generation(a2) > gen_a);

  // Cooperative crash: ORPHANED until a scan recycles it; on_dead runs for
  // exactly that slot.
  CHECK(reg.abandon(b, reg.generation(b)));
  CHECK_EQ(reg.state(b), SlotRegistry::kOrphaned);
  std::vector<std::uint32_t> dead;
  CHECK_EQ(reg.scan([&](std::uint32_t s) { dead.push_back(s); }), 1u);
  CHECK_EQ(dead.size(), std::size_t{1});
  CHECK_EQ(dead[0], b);
  CHECK_EQ(reg.state(b), SlotRegistry::kFree);
}

// ------------------------------------------------------- managed sessions

// Session is the RAII lease: scope exit releases the slot exactly once,
// a moved-from session's destructor does nothing, and abandon() leaves
// the slot ORPHANED until a sweep recycles it.
void session_raii() {
  Managed m(1, 2);
  SlotRegistry& reg = m.registry();
  std::uint32_t pid = 0;
  {
    auto a = m.join();
    CHECK(!a.degraded());
    pid = a.pid();
    auto moved = std::move(a);
    CHECK(!a.valid());
    CHECK(moved.valid());
    CHECK_EQ(moved.pid(), pid);
    CHECK_EQ(reg.active(), 1u);
  }  // a's destructor does nothing; moved's releases
  CHECK_EQ(reg.state(pid), SlotRegistry::kFree);
  CHECK_EQ(reg.generation(pid), 2u);  // one claim, one release
  CHECK_EQ(m.membership().retires, 1u);

  {
    auto b = m.join();
    CHECK(!b.degraded());
    CHECK_EQ(b.pid(), pid);
    b.abandon();
    CHECK(!b.valid());
  }  // an abandoned session's destructor does nothing either
  CHECK_EQ(reg.state(pid), SlotRegistry::kOrphaned);
  CHECK_EQ(reg.active(), 1u);
  CHECK_EQ(m.membership().retires, 1u);
  CHECK_EQ(m.reclaim_scan(), 1u);
  CHECK_EQ(reg.state(pid), SlotRegistry::kFree);
  CHECK_EQ(m.membership().crash_reclaims, 1u);
}

// Construction preconditions hold in Release: slots == 0 is refused by the
// managed object, words == 0 and a pid count past 2^14 by the protocol
// object it wraps — all with std::invalid_argument.
void managed_preconditions() {
  const auto refuses = [](std::uint32_t slots, std::uint32_t words) {
    try {
      Managed m(slots, words);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  CHECK(refuses(0, 4));
  CHECK(refuses(2, 0));
  CHECK(refuses(core::kMaxProcs, 4));  // slots + 1 pids, one past the limit
  CHECK(!refuses(1, 1));
  // The registry on its own refuses an empty pool (try_acquire would
  // divide by its capacity).
  bool refused = false;
  try {
    SlotRegistry reg(0);
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  CHECK(refused);
}

// A retired, abandoned or moved-from session no longer owns a pid: pid,
// ll, sc and vl on it throw std::logic_error in every build instead of
// running on a pid that may be someone else's. For an abandoned session
// this is core::MwLLSC's crash-stop precondition: a reclaimed pid takes no
// further step.
void dead_session_ops_throw() {
  Managed m(2, 2);
  std::vector<std::uint64_t> v(2);
  const auto throws = [&](Managed::Session& s) {
    int n = 0;
    try { s.ll(v.data()); } catch (const std::logic_error&) { ++n; }
    try { s.sc(v.data()); } catch (const std::logic_error&) { ++n; }
    try { s.vl(); } catch (const std::logic_error&) { ++n; }
    try { s.pid(); } catch (const std::logic_error&) { ++n; }
    return n == 4;
  };
  auto a = m.join();
  CHECK(a.retire());
  CHECK(throws(a));
  auto z = m.join();
  z.abandon();
  CHECK(throws(z));
  CHECK_EQ(m.reclaim_scan(), 1u);
  auto d1 = m.join();
  auto d2 = m.join();
  auto d3 = m.join();  // both slots held: degraded
  CHECK(d3.degraded());
  CHECK(d3.retire());
  CHECK(throws(d3));
  CHECK(d1.retire());
  CHECK(d2.retire());
  auto b = m.join();
  auto c = std::move(b);
  CHECK(throws(b));
  c.ll(v.data());  // the session it moved into is live
  CHECK(c.vl());
}

void managed_basic() {
  Managed m(2, 3);
  CHECK_EQ(m.words(), 3u);

  auto a = m.join();
  auto b = m.join();
  CHECK(a.valid() && !a.degraded());
  CHECK(b.valid() && !b.degraded());
  CHECK(a.pid() != b.pid());

  // Cross-session counter semantics on the one shared variable.
  std::vector<std::uint64_t> v(3);
  a.ll(v.data());
  v[0] += 1;
  CHECK(a.sc(v.data()));
  b.ll(v.data());
  CHECK_EQ(v[0], 1u);
  v[0] += 1;
  CHECK(b.sc(v.data()));

  // SC link is consumed; VL without a fresh LL is stale.
  CHECK(!b.sc(v.data()));

  CHECK(a.retire());
  CHECK(b.retire());
  const auto s = m.membership();
  CHECK_EQ(s.joins, 2u);
  CHECK_EQ(s.retires, 2u);
  CHECK_EQ(s.degraded_joins, 0u);
  CHECK_EQ(s.active, 0u);

  // A retired pid's slot is immediately claimable, and the new holder
  // starts unlinked: SC without LL fails.
  auto c = m.join();
  CHECK(!c.degraded());
  CHECK(!c.sc(v.data()));
  c.ll(v.data());
  CHECK_EQ(v[0], 2u);
}

void degraded_path() {
  Managed m(1, 2);
  auto a = m.join();
  CHECK(!a.degraded());

  // Slot pool exhausted and nothing to reclaim: degrade, don't fail.
  auto d1 = m.join();
  CHECK(d1.valid());
  CHECK(d1.degraded());
  CHECK_EQ(d1.pid(), m.reserved_pid());

  // Degraded SC without a prior LL is a semantic failure, not a deadlock.
  std::vector<std::uint64_t> v(2);
  CHECK(!d1.sc(v.data()));

  // Degraded sessions linearize with wait-free ones on the same variable:
  // a's link must die when the degraded session's SC lands.
  a.ll(v.data());
  d1.ll(v.data());
  CHECK(d1.vl());
  v[0] = 7;
  CHECK(d1.sc(v.data()));
  CHECK(!a.sc(v.data()));
  a.ll(v.data());
  CHECK_EQ(v[0], 7u);
  CHECK(a.vl());

  // Two degraded sessions serialize (lock released at SC): no deadlock.
  auto d2 = m.join();
  CHECK(d2.degraded());
  d1.ll(v.data());
  v[0] = 8;
  CHECK(d1.sc(v.data()));
  d2.ll(v.data());
  CHECK_EQ(v[0], 8u);
  v[0] = 9;
  CHECK(d2.sc(v.data()));
  CHECK(d1.retire());
  CHECK(d2.retire());

  const auto s = m.membership();
  CHECK_EQ(s.degraded_joins, 2u);
  CHECK(s.join_retries >= 2u);

  // Once a slot frees up, joins are wait-free again.
  CHECK(a.retire());
  auto back = m.join();
  CHECK(!back.degraded());
}

// Untraced, a degraded join() and the retire() of a degraded session that
// holds no LL..SC window take no lock: neither waits for another degraded
// session's window to close. The waits are bounded so a regression fails
// here instead of hanging.
void degraded_join_does_not_wait() {
  Managed m(1, 2);
  auto a = m.join();
  auto holder = m.join();
  CHECK(holder.degraded());
  std::vector<std::uint64_t> v(2);
  holder.ll(v.data());  // holds the degraded lock until its SC

  auto joined = std::async(std::launch::async, [&] { return m.join(); });
  CHECK(joined.wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready);
  auto d = joined.get();
  CHECK(d.degraded());
  auto retired =
      std::async(std::launch::async, [&] { return d.retire(); });
  CHECK(retired.wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready);
  CHECK(retired.get());

  v[0] = 5;
  CHECK(holder.sc(v.data()));
  CHECK(holder.retire());
  CHECK_EQ(m.membership().degraded_joins, 2u);
}

// The degraded window's lock on its own: K threads each make M plain,
// unsynchronized increments under it, and the total must be exact (and
// race-free under TSan). M is small because on one CPU every hand-off
// costs the next ticket's spin-then-yield.
void ticket_lock_mutual_exclusion() {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kIncrements = 2000;
  util::TicketLock lock;
  std::uint64_t total = 0;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        util::MutexLock g(lock);
        ++total;
      }
    });
  }
  for (auto& th : pool) th.join();
  CHECK_EQ(total, kThreads * kIncrements);
  CHECK_EQ(lock.queued(), 0u);
}

// Degraded windows are served in arrival order. H holds the window and B
// queues for it; H's SC and its very next LL must then wait out B's whole
// window. An unfair lock lets H relock before the waiting B runs; H then
// closes its window before joining B, so that fails the check instead of
// deadlocking. Several rounds, so an unfair lock that loses one such race
// still fails.
void degraded_fifo() {
  Managed m(1, 2);
  auto a = m.join();  // holds the only slot
  auto h = m.join();
  auto b = m.join();
  CHECK(h.degraded() && b.degraded());
  std::vector<std::uint64_t> hv(2);
  for (int round = 0; round < 16; ++round) {
    h.ll(hv.data());
    CHECK_EQ(m.membership().degraded_queue, 1u);
    std::atomic<int> order{0};
    int b_mark = -1;
    std::thread tb([&] {
      std::vector<std::uint64_t> bv(2);
      b.ll(bv.data());
      b_mark = order.fetch_add(1, std::memory_order_relaxed);
      bv[0] += 1;
      CHECK(b.sc(bv.data()));
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (m.membership().degraded_queue != 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    CHECK_EQ(m.membership().degraded_queue, 2u);
    hv[0] += 1;
    CHECK(h.sc(hv.data()));
    h.ll(hv.data());
    const int h_mark = order.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t h_read = hv[0];
    hv[0] += 1;
    const bool h_committed = h.sc(hv.data());
    tb.join();
    CHECK_EQ(b_mark, 0);
    CHECK_EQ(h_mark, 1);
    CHECK_EQ(h_read, std::uint64_t(3 * round + 2));  // B's commit landed
    CHECK(h_committed);
  }
  CHECK_EQ(m.membership().degraded_queue, 0u);
}

// A degraded session may LL on one thread, be moved, and SC on another:
// the commit lands and the window opens for the next degraded session.
// The lock has no owner; a std::mutex unlocked by a thread that did not
// lock it is undefined behaviour.
void degraded_window_crosses_threads() {
  Managed m(1, 2);
  auto a = m.join();
  auto d = m.join();
  CHECK(d.degraded());
  std::vector<std::uint64_t> v(2);
  Managed::Session moved;
  std::thread([&] {
    d.ll(v.data());
    moved = std::move(d);
  }).join();
  bool committed = false;
  std::thread([&] {
    v[0] = 11;
    committed = moved.sc(v.data());
  }).join();
  CHECK(committed);
  a.ll(v.data());
  CHECK_EQ(v[0], 11u);
  CHECK_EQ(m.membership().degraded_queue, 0u);

  auto e = m.join();
  CHECK(e.degraded());
  auto opened = std::async(std::launch::async, [&] {
    std::vector<std::uint64_t> w(2);
    e.ll(w.data());
    w[0] += 1;
    return e.sc(w.data());
  });
  CHECK(opened.wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready);
  CHECK(opened.get());
  CHECK(moved.retire());
  CHECK(e.retire());
}

// Only the holder gives its pid up. A holder that goes quiet inside its
// LL..SC window keeps the pid through any number of sweeps: asking a sweep
// to take live slots is refused, so the next joiner degrades instead of
// sharing the pid, and the quiet holder's SC fails only because a real
// commit intervened.
void quiet_holder_keeps_its_pid() {
  Managed m(1, 2);
  auto a = m.join();
  std::vector<std::uint64_t> v(2);
  a.ll(v.data());
  int refused = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      m.reclaim_scan(true);
    } catch (const std::invalid_argument&) {
      ++refused;
    }
  }
  CHECK_EQ(refused, 8);
  for (int i = 0; i < 8; ++i) CHECK_EQ(m.reclaim_scan(false), 0u);
  CHECK_EQ(m.registry().state(a.pid()), SlotRegistry::kActive);

  auto b = m.join();
  CHECK(b.degraded());
  std::vector<std::uint64_t> w(2);
  b.ll(w.data());
  w[0] = 1;
  CHECK(b.sc(w.data()));
  v[0] += 10;
  CHECK(!a.sc(v.data()));
  a.ll(v.data());
  CHECK_EQ(v[0], 1u);
  CHECK(a.retire());
  CHECK(b.retire());
  CHECK_EQ(m.membership().crash_reclaims, 0u);
}

void orphan_reclaim_on_join() {
  Managed m(2, 2);
  auto a = m.join();
  auto b = m.join();
  std::vector<std::uint64_t> v(2);
  a.ll(v.data());  // crash mid-link: announce settled, link open
  a.abandon();

  // Exhausted, but a join-retry orphan sweep recycles a's slot — no
  // degradation needed, and the reclaim settled the dead pid's announce.
  auto c = m.join();
  CHECK(!c.degraded());
  const auto s = m.membership();
  CHECK_EQ(s.crash_reclaims, 1u);
  CHECK(s.join_retries >= 1u);
  CHECK_EQ(s.degraded_joins, 0u);

  // The recycled pid is quiescent: no link, ops run clean.
  CHECK(!c.sc(v.data()));
  c.ll(v.data());
  v[0] += 1;
  CHECK(c.sc(v.data()));
  CHECK(b.valid());
  b.ll(v.data());
  CHECK_EQ(v[0], 1u);
}

// ------------------------------------------------------- lifecycle traces

void traced_lifecycle() {
  obs::TraceConfig tcfg;
  tcfg.capacity = 1u << 14;
  Managed m(2, 2);
  obs::TraceSink sink(m.slots() + 1, tcfg);  // + the reserved degraded pid
  m.set_trace(&sink, 0);

  std::vector<std::uint64_t> v(2);
  auto a = m.join();
  auto b = m.join();
  a.ll(v.data());
  v[0] += 1;
  CHECK(a.sc(v.data()));
  a.abandon();                       // crash...
  auto d = m.join();                 // exhaustion: join-retry orphan sweep
  CHECK(!d.degraded());              // ...recycled the corpse's slot
  CHECK(d.retire());
  CHECK(b.retire());

  const obs::TraceData data = sink.collect();
  const auto r = obs::check_trace(data);
  if (!r.ok()) {
    for (const auto& viol : r.violations)
      std::fprintf(stderr, "  %s\n", viol.c_str());
  }
  CHECK(r.ok());
  CHECK_EQ(r.joins, 3u);
  CHECK_EQ(r.retires, 2u);
  CHECK_EQ(r.crash_reclaims, 1u);

  // Lifecycle events reload from a dump bit-identical, in ring order.
  const std::string path = "test_membership_trace.trace";
  obs::TraceData loaded;
  CHECK(obs::write_trace(path, data));
  CHECK(obs::load_trace(path, &loaded));
  CHECK(loaded == data);
  std::remove(path.c_str());
}

// The checker's lifecycle rules, on hand-built streams: leases must not
// overlap, retire must not leave an LL open, dead pids stay silent.
obs::TraceEvent ev(obs::EventKind k, std::uint32_t pid, std::uint64_t tsc,
                   std::uint32_t arg = 0) {
  obs::TraceEvent e{};
  e.tsc = tsc;
  e.tag = 0;
  e.var = 0;
  e.arg = arg;
  e.kind = static_cast<std::uint16_t>(k);
  e.pid = static_cast<std::uint16_t>(pid);
  return e;
}

void checker_lifecycle_rules() {
  using obs::EventKind;
  auto base = [] {
    obs::TraceData d;
    d.per_pid.resize(1);
    d.dropped.assign(1, 0);
    obs::TraceData::VarInfo vi;
    vi.id = 0;
    vi.words = 2;
    vi.label = "jp";
    d.vars.push_back(vi);
    return d;
  };

  {  // double join without retire
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kProcJoin, 0, 2)};
    const auto r = obs::check_trace(d);
    CHECK(!r.ok());
    CHECK(r.violations[0].find("already live") != std::string::npos);
  }
  {  // retire with an open LL window
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kLlStart, 0, 2),
                    ev(EventKind::kProcRetire, 0, 3)};
    const auto r = obs::check_trace(d);
    CHECK(!r.ok());
    CHECK(r.violations[0].find("open LL") != std::string::npos);
  }
  {  // protocol activity after retire
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kProcRetire, 0, 2),
                    ev(EventKind::kLlStart, 0, 3),
                    ev(EventKind::kLlFast, 0, 4)};
    const auto r = obs::check_trace(d);
    CHECK(!r.ok());
    CHECK_EQ(r.violations.size(), std::size_t{1});  // one report per gap
    CHECK(r.violations[0].find("without a proc_join") != std::string::npos);
  }
  {  // clean lease cycle, including a crash reclaim, passes
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1),
                    ev(EventKind::kLlStart, 0, 2),
                    ev(EventKind::kLlFast, 0, 3),
                    ev(EventKind::kProcCrashReclaim, 0, 4),
                    ev(EventKind::kProcJoin, 0, 5),
                    ev(EventKind::kProcRetire, 0, 6)};
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
    CHECK_EQ(r.joins, 2u);
  }
  {  // overlapping degraded leases (arg=1) are legal on the shared pid
    obs::TraceData d = base();
    d.per_pid[0] = {ev(EventKind::kProcJoin, 0, 1, 1),
                    ev(EventKind::kProcJoin, 0, 2, 1),
                    ev(EventKind::kProcRetire, 0, 3, 1),
                    ev(EventKind::kProcRetire, 0, 4, 1)};
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
  }
}

// -------------------------------------------------------------- MT churn

void mt_churn() {
  constexpr std::uint32_t kSlots = 3;
  constexpr unsigned kThreads = 6;
  constexpr unsigned kSessions = 60;
  constexpr unsigned kOpsPerSession = 25;

  Managed m(kSlots, 2);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> abandons{0};

  // Maintenance reclaimer. Its sweeps race the join-path sweeps of
  // exhausted joiners with no lock between them: the RECLAIMING CAS gives
  // each orphan to exactly one sweep (crash_reclaims == abandons below).
  std::thread reaper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      m.reclaim_scan();
      std::this_thread::yield();
    }
    m.reclaim_scan();
  });

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint64_t> v(2);
      for (unsigned sess = 0; sess < kSessions; ++sess) {
        auto s = m.join();
        for (unsigned op = 0; op < kOpsPerSession; ++op) {
          // Retry until this session's increment lands (SC failures are
          // semantic: somebody else's SC intervened).
          for (;;) {
            s.ll(v.data());
            v[0] += 1;
            v[1] = t;
            if (s.sc(v.data())) break;
          }
        }
        if (!s.degraded() && sess % 7 == 3) {
          s.abandon();  // cooperative crash, mid-pool
          abandons.fetch_add(1, std::memory_order_relaxed);
        } else {
          s.retire();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  reaper.join();

  // Every increment that reported success is in the final value: the
  // lifecycle layer lost no SC and double-applied none.
  auto final_session = m.join();
  std::vector<std::uint64_t> v(2);
  final_session.ll(v.data());
  CHECK_EQ(v[0],
           std::uint64_t{kThreads} * kSessions * kOpsPerSession);
  CHECK_EQ(v[0], m.stats().sc_success - 0u);
  final_session.retire();

  const auto s = m.membership();
  CHECK_EQ(s.joins + s.degraded_joins,
           std::uint64_t{kThreads} * kSessions + 1);
  CHECK_EQ(s.crash_reclaims, abandons.load());
  CHECK_EQ(s.retires + abandons.load(),
           std::uint64_t{kThreads} * kSessions + 1);
  CHECK_EQ(s.active, 0u);

  // Metrics surface the lifecycle series.
  obs::MetricsRegistry reg;
  m.export_metrics(reg, "impl=\"jp\"");
  CHECK(reg.metrics().count(
      "mwllsc_membership_joins_total{impl=\"jp\"}"));
  CHECK(reg.metrics().count(
      "mwllsc_membership_crash_reclaims_total{impl=\"jp\"}"));
  CHECK(reg.metrics().count(
      "mwllsc_membership_degraded_queue{impl=\"jp\"}"));
  CHECK_EQ(s.degraded_queue, 0u);

  // Footprint gained the registry part.
  bool has_registry_part = false;
  const auto fp = m.footprint();
  for (const auto& part : fp.parts()) {
    if (part.name.find("membership") != std::string::npos) {
      has_registry_part = true;
    }
  }
  CHECK(has_registry_part);
}

}  // namespace

int main() {
  registry_state_machine();
  session_raii();
  managed_preconditions();
  managed_basic();
  degraded_path();
  degraded_join_does_not_wait();
  ticket_lock_mutual_exclusion();
  degraded_fifo();
  degraded_window_crosses_threads();
  dead_session_ops_throw();
  quiet_holder_keeps_its_pid();
  orphan_reclaim_on_join();
  traced_lifecycle();
  checker_lifecycle_rules();
  mt_churn();
  std::printf("test_membership: OK\n");
  return 0;
}
