// The apps/ layer as a correctness gate, on every substrate (jp / am /
// retry / lock):
//   * WfUniversal fetch&inc under N-thread stress linearizes against the
//     sequential spec — the returned values are exactly a permutation of
//     0..N*K-1 and the final state is N*K;
//   * the help-all attempt bound holds: no apply ever took more than
//     WfUniversal::kMaxAttempts LL/SC rounds;
//   * a round whose link broke ends at its VL: it issues no substrate SC;
//   * UniversalObject (lock-free retry) loses no increments;
//   * both constructions refuse, in every build, a substrate whose
//     initial SC fails;
//   * WfQueue sequential spec (FIFO, full, empty sentinel) and an MT
//     producer/consumer checksum: every enqueued value is dequeued exactly
//     once.
// Run it under ASan/UBSan/TSan via -DMWLLSC_SANITIZE=... — the announce /
// help-all protocol is exactly the kind of code sanitizers exist for.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/universal.hpp"
#include "apps/wf_queue.hpp"
#include "apps/wf_universal.hpp"
#include "bench_common.hpp"
#include "core/env.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

struct Counter {
  std::uint64_t v;
};
struct FetchInc {
  std::uint64_t operator()(Counter& c, const apps::OpDesc&) const {
    return c.v++;
  }
};

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kOpsPerThread = 2000;

using WfCounter = apps::WfUniversal<Counter, FetchInc>;

void wf_counter_for(const core::MwLLSCFactory& f) {
  WfCounter obj(kThreads, Counter{0}, f.make);
  std::vector<std::vector<std::uint64_t>> results(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      results[t].reserve(kOpsPerThread);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i)
        results[t].push_back(obj.apply(t, apps::OpDesc{}));
    });
  }
  for (auto& th : pool) th.join();

  // Sequential spec of fetch&inc: the N*K results, merged, are exactly
  // 0..N*K-1 — each value handed out once. Any lost update, double apply
  // or torn help would break the permutation.
  std::vector<std::uint64_t> all;
  for (auto& r : results) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  CHECK_EQ(all.size(), static_cast<std::size_t>(kThreads) * kOpsPerThread);
  for (std::size_t i = 0; i < all.size(); ++i) CHECK_EQ(all[i], i);
  CHECK_EQ(obj.read(0).v, kThreads * kOpsPerThread);

  // The wait-free bound: no apply needed more than kMaxAttempts rounds,
  // and the aggregate confirms at least one round per apply.
  const std::uint64_t ops = kThreads * kOpsPerThread;
  CHECK(obj.max_attempts() >= 1);
  CHECK(obj.max_attempts() <= WfCounter::kMaxAttempts);
  CHECK(obj.total_attempts() >= ops);
  CHECK(obj.total_attempts() <= ops * WfCounter::kMaxAttempts);
  std::printf("  wf universal   %-5s  attempts/op = %.3f, max = %llu\n",
              f.name.c_str(),
              static_cast<double>(obj.total_attempts()) /
                  static_cast<double>(ops),
              static_cast<unsigned long long>(obj.max_attempts()));
}

void lf_counter_for(const core::MwLLSCFactory& f) {
  apps::UniversalObject<Counter> obj(kThreads, Counter{0}, f.make);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i)
        obj.apply(t, [](Counter& c) { c.v++; });
    });
  }
  for (auto& th : pool) th.join();
  CHECK_EQ(obj.read(0).v, kThreads * kOpsPerThread);
  // Exactly one committed SC per apply, so attempts >= applies; the `read`
  // calls above do not count.
  CHECK(obj.attempts_hint() >= kThreads * kOpsPerThread);
  std::printf("  lf universal   %-5s  attempts/op = %.3f\n", f.name.c_str(),
              static_cast<double>(obj.attempts_hint()) /
                  static_cast<double>(kThreads * kOpsPerThread));
}

// Deterministic help-all exercise via the step seam (the MT stress above
// relies on the OS preempting inside an LL..SC window, which a single-core
// machine may never do): park p0 at an exact protocol point and reentrantly
// drive p1's apply from the HookEnv hook, exactly like test_help_path does
// for the core protocol. The jp substrate runs on NoEnv, so only the
// construction's own "apps:" points reach the hook.
using HookedWfCounter = apps::WfUniversal<Counter, FetchInc, core::HookEnv>;

struct DetHook {
  HookedWfCounter* obj;
  const char* stall_point;
  bool fired = false;
  std::uint64_t p1_result = 0;
  unsigned p0_lost_rounds = 0;  // "apps:sc_failed" seen for pid 0
};

void det_interfere(void* ctx, const char* point, std::uint32_t pid) {
  auto* st = static_cast<DetHook*>(ctx);
  if (pid == 0 && std::strcmp(point, "apps:sc_failed") == 0)
    ++st->p0_lost_rounds;
  if (st->fired || pid != 0) return;
  if (std::strcmp(point, st->stall_point) != 0) return;
  st->fired = true;  // p1's own hook points must not recurse
  st->p1_result = st->obj->apply(1, apps::OpDesc{});
}

void deterministic_help_paths() {
  // Helped before the first LL: p1's committed SC applies p0's announced
  // op, so p0 returns straight from its snapshot — no SC at all. Help
  // order (pid-ascending) gives p0 the earlier fetch&inc value.
  {
    HookedWfCounter obj(2, Counter{0});
    DetHook st{&obj, "apps:announced", false, 0};
    core::HookEnv::install(&det_interfere, &st);
    const std::uint64_t r0 = obj.apply(0, apps::OpDesc{});
    core::HookEnv::install(nullptr, nullptr);
    CHECK(st.fired);
    CHECK_EQ(r0, 0u);
    CHECK_EQ(st.p1_result, 1u);
    CHECK_EQ(obj.read(0).v, 2u);
    CHECK_EQ(obj.max_attempts(), 1u);  // p0 never reached an SC
  }
  // Lost at the VL, then helped: p0 has linked when p1 commits (helping
  // p0 in the same SC). p0's VL finds its link broken, so its round ends
  // without an SC; its second LL finds the op applied and returns the
  // result from that snapshot.
  {
    HookedWfCounter obj(2, Counter{0});
    DetHook st{&obj, "apps:linked", false, 0};
    core::HookEnv::install(&det_interfere, &st);
    const std::uint64_t r0 = obj.apply(0, apps::OpDesc{});
    core::HookEnv::install(nullptr, nullptr);
    CHECK(st.fired);
    CHECK_EQ(r0, 0u);
    CHECK_EQ(st.p1_result, 1u);
    CHECK_EQ(obj.read(0).v, 2u);
    CHECK_EQ(obj.max_attempts(), 2u);  // one lost round + the helped exit
    CHECK_EQ(st.p0_lost_rounds, 1u);
    // The lost round wrote nothing: the only SCs are the constructor's
    // and p1's, and the VLs are p1's gate and p0's.
    const core::OpStatsSnapshot s = obj.substrate().stats();
    CHECK_EQ(s.sc_ops, 2u);
    CHECK_EQ(s.vl_ops, 2u);
  }
  std::printf("  deterministic help paths  OK\n");
}

void queue_sequential_spec() {
  apps::WfQueue<4> q(1);
  CHECK_EQ(q.dequeue(0), apps::kQueueEmpty);  // empty from the start
  CHECK(!q.enqueue(0, apps::kQueueEmpty));    // sentinel rejected
  for (std::uint64_t v = 1; v <= 4; ++v) CHECK(q.enqueue(0, v * 10));
  CHECK(!q.enqueue(0, 50));  // full at capacity
  CHECK_EQ(q.size(0), 4u);
  for (std::uint64_t v = 1; v <= 4; ++v) CHECK_EQ(q.dequeue(0), v * 10);  // FIFO
  CHECK_EQ(q.dequeue(0), apps::kQueueEmpty);
  // Wraps around the ring.
  CHECK(q.enqueue(0, 7));
  CHECK_EQ(q.dequeue(0), 7u);
}

void queue_mt_for(const core::MwLLSCFactory& f) {
  constexpr unsigned kProducers = 2;
  constexpr unsigned kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 1500;
  apps::WfQueue<16> q(kProducers + kConsumers, f.make);
  std::atomic<std::uint64_t> dequeued{0};
  std::vector<std::vector<std::uint64_t>> got(kConsumers);
  std::vector<std::thread> pool;
  for (unsigned p = 0; p < kProducers; ++p) {
    pool.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = p * kPerProducer + i + 1;  // distinct, nonzero
        while (!q.enqueue(p, v)) {
        }  // full: retry
      }
    });
  }
  for (unsigned c = 0; c < kConsumers; ++c) {
    pool.emplace_back([&, c] {
      const std::uint32_t pid = kProducers + c;
      got[c].reserve(kPerProducer);
      while (dequeued.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        const std::uint64_t v = q.dequeue(pid);
        if (v == apps::kQueueEmpty) continue;
        got[c].push_back(v);
        dequeued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : pool) th.join();

  // Checksum: everything enqueued came out exactly once, nothing else.
  std::vector<std::uint64_t> all;
  for (auto& g : got) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  CHECK_EQ(all.size(),
           static_cast<std::size_t>(kProducers) * kPerProducer);
  for (std::size_t i = 0; i < all.size(); ++i) CHECK_EQ(all[i], i + 1);
  CHECK_EQ(q.size(0), 0u);
  CHECK(q.max_attempts() <= 3);
  std::printf("  wf queue       %-5s  OK\n", f.name.c_str());
}

// A substrate that breaks the LL/SC contract: every SC fails. Both
// universal constructions must refuse it at construction, in every build,
// instead of starting from a state that was never installed.
class FailingSc final : public core::IMwLLSC {
 public:
  explicit FailingSc(std::uint32_t w) : w_(w) {}
  void ll(std::uint32_t, std::uint64_t* out) override {
    std::fill(out, out + w_, 0);
  }
  bool sc(std::uint32_t, const std::uint64_t*) override { return false; }
  bool vl(std::uint32_t) override { return false; }
  std::uint32_t words() const override { return w_; }
  core::OpStatsSnapshot stats() const override { return {}; }
  util::Footprint footprint() const override { return {}; }

 private:
  std::uint32_t w_;
};

void initial_sc_checked() {
  const apps::Substrate broken = [](std::uint32_t, std::uint32_t w) {
    return std::unique_ptr<core::IMwLLSC>(new FailingSc(w));
  };
  bool wf = false, lf = false;
  try {
    WfCounter obj(2, Counter{0}, broken);
  } catch (const std::logic_error&) {
    wf = true;
  }
  try {
    apps::UniversalObject<Counter> obj(2, Counter{0}, broken);
  } catch (const std::logic_error&) {
    lf = true;
  }
  CHECK(wf);
  CHECK(lf);
  std::printf("  initial SC checked          OK\n");
}

}  // namespace

int main() {
  std::printf("test_apps:\n");
  deterministic_help_paths();
  queue_sequential_spec();
  initial_sc_checked();
  for (const auto& f : bench::all_factories()) {
    wf_counter_for(f);
    lf_counter_for(f);
    queue_mt_for(f);
  }
  std::printf("test_apps: OK\n");
  return 0;
}
