// The single-thread, uncontended cost ladder: the same LL/+1/SC pair on
// each rung of the layer stack,
//   llsc     Dw128LLSC, one word (the engine's CAS)
//   core     MwLLSC<Dw128LLSC>, W=4
//   any      the same through the IMwLLSC facade (virtual calls)
//   session  a ManagedMwLLSC<jp>::Session (heartbeats, degraded check)
//   apps     WfUniversal::apply of a fetch&inc over the facade,
// all with N=2 processes (one slot plus the reserved degraded pid is what a
// one-slot managed object has). The apps rung's variable holds the 1-word
// counter plus 2 words per process, so it copies W=5 words, one more than
// the rungs below. Each rung minus the one below is that layer's self
// time. Every rung checks its result: final value = pairs run.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/wf_universal.hpp"
#include "core/any.hpp"
#include "harness.hpp"
#include "membership/managed.hpp"
#include "util/timing.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Ladder {
  double llsc_ns = 0, core_ns = 0, any_ns = 0, session_ns = 0, apps_ns = 0;
  Verdict verdict;
};

namespace ladder_detail {

inline constexpr std::uint32_t kProcs = 2;
inline constexpr std::uint32_t kWords = 4;
inline constexpr std::uint64_t kPairs = 100000;
inline constexpr int kReps = 7;

/// Median ns per pair over kReps timed batches of kPairs calls to `pair`.
template <class F>
double time_rung(F&& pair) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = mwllsc::util::now_ns();
    for (std::uint64_t i = 0; i < kPairs; ++i) pair();
    ns.push_back(static_cast<double>(mwllsc::util::now_ns() - t0) /
                 static_cast<double>(kPairs));
  }
  return median(ns);
}

inline void check_rung(const char* rung, const std::uint64_t* words,
                       std::uint32_t n, std::uint64_t failed_pairs,
                       Verdict& v) {
  const std::uint64_t expect = kPairs * kReps;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (words[i] != expect) {
      v.fail(1, std::string(rung) + " rung: word " + std::to_string(i) +
                    " = " + std::to_string(words[i]) + ", expected " +
                    std::to_string(expect));
    }
  }
  if (failed_pairs != 0) {
    v.fail(failed_pairs, std::string(rung) + " rung: an uncontended pair failed");
  }
}

/// The multiword pair over anything with ll(out)/sc(in) for pid 0.
template <class LL, class SC>
double multiword_rung(const char* rung, LL&& ll, SC&& sc, Verdict& v) {
  std::uint64_t buf[kWords] = {};
  std::uint64_t failed = 0;
  const double ns = time_rung([&] {
    ll(buf);
    for (auto& x : buf) ++x;
    if (!sc(buf)) ++failed;
  });
  ll(buf);
  check_rung(rung, buf, kWords, failed, v);
  return ns;
}

struct Inc {
  std::uint64_t operator()(std::uint64_t& s,
                           const mwllsc::apps::OpDesc&) const {
    return ++s;
  }
};

}  // namespace ladder_detail

inline Ladder run_ladder() {
  using namespace ladder_detail;
  Ladder l;
  {
    mwllsc::llsc::Dw128LLSC x(kProcs);
    std::uint64_t failed = 0;
    l.llsc_ns = time_rung([&] {
      if (!x.sc(0, x.ll(0) + 1)) ++failed;
    });
    const std::uint64_t v = x.peek();
    check_rung("llsc", &v, 1, failed, l.verdict);
  }
  {
    Jp obj(kProcs, kWords);
    l.core_ns = multiword_rung(
        "core", [&](std::uint64_t* b) { obj.ll(0, b); },
        [&](const std::uint64_t* b) { return obj.sc(0, b); }, l.verdict);
  }
  {
    auto obj = mwllsc::apps::jp_substrate()(kProcs, kWords);
    mwllsc::core::IMwLLSC& any = *obj;
    l.any_ns = multiword_rung(
        "any", [&](std::uint64_t* b) { any.ll(0, b); },
        [&](const std::uint64_t* b) { return any.sc(0, b); }, l.verdict);
  }
  {
    mwllsc::membership::ManagedMwLLSC<Jp> m(kProcs - 1, kWords);
    auto s = m.join();
    l.session_ns = multiword_rung(
        "session", [&](std::uint64_t* b) { s.ll(b); },
        [&](const std::uint64_t* b) { return s.sc(b); }, l.verdict);
  }
  {
    mwllsc::apps::WfUniversal<std::uint64_t, Inc> u(kProcs, 0);
    std::uint64_t expect = 0, wrong = 0;
    l.apps_ns = time_rung([&] {
      if (u.apply(0, mwllsc::apps::OpDesc{}) != ++expect) ++wrong;
    });
    const std::uint64_t v = u.read(0);
    check_rung("apps", &v, 1, wrong, l.verdict);
  }
  return l;
}

}  // namespace perfbench
