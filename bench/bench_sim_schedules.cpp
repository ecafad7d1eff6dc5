// E9 — Wait-freedom step bounds under adversarial schedules (Theorem 1),
// measured in the deterministic simulator on the shipped classes: one step
// is one shared access of core::MwLLSC, baseline::AmLLSC or
// baseline::RetryLLSC (sim/harness.hpp).
//
// For the paper's algorithm (jp), the AM baseline and the retry strawman,
// runs seeded-random and anti-adversarial schedules and reports the MAXIMUM
// steps any single LL took. jp implements the paper's full protocol behind
// an announce-free first attempt: its worst LL must stay within the
// implementation's 3W+6 (inside Theorem 1's 4W+12), independent of N, with
// zero LL retries (the simulator's checker fails any run where one
// fires); at least one cell must reach 2W+6, proving the
// adversary drives LLs through the announced fallback. am stays under its
// O(N·W) announce/help bound; retry's worst LL
// grows with however long the adversary cares to run — the observable
// difference between wait-free and merely lock-free. Any cell where a
// measured worst case exceeds its claimed bound is flagged in the status
// column and makes the driver exit nonzero (so --smoke gates CI).
//
// Every run executes under the simulator's checker (the sequential-spec
// linearizability oracle for all three classes; I1 buffer ownership and I2
// bank writes for jp); any violation makes the driver exit nonzero, so this
// doubles as a verification pass.
//
// Also reports simulator throughput (steps/second) and CHESS coverage
// (schedules/second), characterizing the verification substrate itself.
//
// Run: ./bench_sim_schedules [--smoke] [--metrics PATH] [--trace PATH]
//   --smoke: reduced grid and run lengths for CI smoke testing.
//   --metrics: export worst/bound cells as gauges.
//   --trace: record the jp random and adversarial runs (crash-free, so
//   every LL window closes; rings sized so the smoke grid drops nothing)
//   for trace_check. Needs a -DMWLLSC_TRACE=ON build.
//
// Repro modes (every invariant-violation message embeds the knobs these
// take — "sched-seed=S" / "churn-seed=S" and "schedule=..."):
//   --seed S   [--n N] [--w W] [--ops K] [--wl-seed S2]
//       re-run the single failing random schedule seed on the jp system
//       under the full checker and exit (0 clean / 1 violation).
//   --replay "0,1,c0,r0,1,..."  [--n N] [--w W] [--ops K] [--wl-seed S2]
//       token-for-token re-execution of a recorded schedule ("P" = step,
//       "cP" = crash, "rP" = reclaim); N/W/ops/wl-seed must match the
//       failing run or the replay reports the divergence.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sim/harness.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

using namespace mwllsc;
using namespace mwllsc::sim;
using util::TablePrinter;

namespace {

bool g_all_ok = true;
bench::ObsSession* g_obs = nullptr;  // traces the jp runs when --trace

// Records a jp run into the trace sink under a descriptive label.
template <class Impl>
void trace_run(SimWorkload<Impl>& wl, const std::string& label) {
  if constexpr (std::is_same_v<Impl, SimJp>) {
    if (!g_obs->tracing()) return;
    const std::uint32_t var = g_obs->bind(wl.object(), label);
    wl.trace(g_obs->sink(), var);
    g_obs->sink()->describe_var(var, wl.w(), label);  // the object said "jp"
  }
}

// Successful SCs that doom a pending LL validation: jp's aged validation
// accepts a drift up to P (N rounded up to a power of two); am and retry
// validate strictly.
template <class Impl>
std::uint64_t doom_delta(std::uint32_t n) {
  if constexpr (std::is_same_v<Impl, SimJp>) {
    std::uint64_t p = 1;
    while (p < n) p <<= 1;
    return p + 1;
  }
  return 1;
}

void note(const RunResult& r, const char* what) {
  if (!r.ok) {
    std::fprintf(stderr, "INVARIANT FAILURE (%s schedule): %s\n", what,
                 r.error.c_str());
    g_all_ok = false;
  }
}

template <typename Impl>
std::uint32_t worst_ll_random(std::uint32_t n, std::uint32_t w,
                              std::uint32_t seeds) {
  std::uint32_t worst = 0;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 300;
    cfg.seed = s;
    SimWorkload<Impl> wl(n, w, cfg);
    trace_run(wl, "jp n=" + std::to_string(n) + " w=" + std::to_string(w) +
                      " random seed=" + std::to_string(s));
    const RunResult r = run_random(wl, s * 7919);
    note(r, "random");
    worst = std::max(worst, r.max_ll_steps);
  }
  return worst;
}

template <typename Impl>
std::uint32_t worst_ll_adversarial(std::uint32_t n, std::uint32_t w,
                                   std::uint64_t max_steps) {
  std::uint32_t worst = 0;
  for (std::uint32_t victim = 0; victim < n; ++victim) {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 1000000;  // effectively unbounded within max_steps
    cfg.vl_percent = 0;
    SimWorkload<Impl> wl(n, w, cfg);
    trace_run(wl, "jp n=" + std::to_string(n) + " w=" + std::to_string(w) +
                      " adversary victim=" + std::to_string(victim));
    const RunResult r = run_adversarial_anti(wl, victim, w + 8, max_steps,
                                             doom_delta<Impl>(n));
    note(r, "adversarial");
    worst = std::max(worst, wl.max_ll_steps());
    // For a starved in-flight LL the completed-op maximum understates the
    // damage; count the stuck operation too.
    worst = std::max(worst, wl.steps_in_flight(victim));
  }
  return worst;
}

// Shared setup for the --seed / --replay repro modes: one jp workload with
// the caller-specified shape, full invariant checking, verbose verdict.
int run_repro(const bench::Args& args) {
  const std::string replay = args.value("--replay");
  // The ranges keep a mistyped repro from running something else: at most
  // 64 fibers, and W and ops small enough to finish.
  constexpr std::uint64_t kAny = ~std::uint64_t{0};
  const auto n = static_cast<std::uint32_t>(args.number("--n", 2, 1, 64));
  const auto w = static_cast<std::uint32_t>(args.number("--w", 2, 1, 4096));
  WorkloadConfig cfg;
  cfg.ops_per_proc =
      static_cast<std::uint32_t>(args.number("--ops", 300, 1, 1000000));
  cfg.seed = args.number("--wl-seed", 1, 0, kAny);
  const std::uint64_t seed = args.number("--seed", 0, 0, kAny);
  SimWorkload<SimJp> wl(n, w, cfg);
  RunResult r;
  if (!replay.empty()) {
    std::printf("replaying %zu schedule chars on jp N=%u W=%u ops=%u\n",
                replay.size(), n, w, cfg.ops_per_proc);
    r = run_replay(wl, replay);
  } else {
    std::printf("re-running sched-seed=%llu on jp N=%u W=%u ops=%u\n",
                static_cast<unsigned long long>(seed), n, w,
                cfg.ops_per_proc);
    r = run_random(wl, seed);
  }
  if (!r.ok) {
    std::fprintf(stderr, "INVARIANT FAILURE: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("clean: %llu steps, worst LL %u steps (bound %u)\n",
              static_cast<unsigned long long>(r.total_steps),
              r.max_ll_steps, SimJp::ll_impl_bound(w));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--smoke"},
                         {"--metrics", "--trace", "--seed", "--replay", "--n",
                          "--w", "--ops", "--wl-seed"});
  if (args.has("--seed") || args.has("--replay")) return run_repro(args);
  const bool smoke = args.has("--smoke");
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> grid =
      smoke ? std::vector<std::pair<std::uint32_t, std::uint32_t>>{{2, 2},
                                                                   {2, 4}}
            : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                  {2, 4}, {3, 4}, {3, 16}, {4, 8}, {8, 8}};
  std::uint32_t max_n = 1;
  for (const auto& cell : grid) max_n = std::max(max_n, cell.first);
  obs::TraceConfig tcfg;
  tcfg.capacity = 1u << 18;  // per pid: the smoke grid's jp runs fit
  bench::ObsSession obs(args, max_n, tcfg);
  g_obs = &obs;
  const std::uint32_t seeds = smoke ? 4 : 10;
  const std::uint64_t max_steps = smoke ? 30000 : 300000;

  std::printf(
      "E9: worst-case LL steps under adversarial schedules (simulator)%s\n"
      "jp implements the paper's full protocol with an announce-free first\n"
      "attempt: bound 3W+6, inside Theorem 1's 4W+12;\n"
      "am keeps the announce/help O(N*W) bound (N+3)(W+3)+2W+4;\n"
      "retry has no bound — its starved column grows with the run length\n\n",
      smoke ? " [smoke]" : "");

  TablePrinter table({"N", "W", "jp bound 4W+12", "jp bound 3W+6",
                      "jp worst", "am bound", "am worst",
                      "retry worst (starved)", "status"});
  bool reached_fallback = false;  // some cell's worst LL >= 2W+6
  for (const auto& [n, w] : grid) {
    const std::uint32_t r_rand_jp = worst_ll_random<SimJp>(n, w, seeds);
    const std::uint32_t r_rand_am = worst_ll_random<SimAm>(n, w, seeds);
    const std::uint32_t adv_jp = worst_ll_adversarial<SimJp>(n, w, max_steps);
    const std::uint32_t adv_am = worst_ll_adversarial<SimAm>(n, w, max_steps);
    const std::uint32_t adv_rt =
        worst_ll_adversarial<SimRetry>(n, w, max_steps);
    const std::uint32_t jp_worst = std::max(r_rand_jp, adv_jp);
    const std::uint32_t am_worst = std::max(r_rand_am, adv_am);
    const std::uint32_t jp_bound = SimJp::ll_step_bound(w);
    const std::uint32_t jp_impl = SimJp::ll_impl_bound(w);
    const std::uint32_t am_bound = SimAm::ll_step_bound(n, w);
    if (jp_worst >= 2 * w + 6) reached_fallback = true;
    const std::string cell =
        "n=\"" + std::to_string(n) + "\",w=\"" + std::to_string(w) + "\"";
    obs.registry().set_gauge(
        "mwllsc_sim_worst_ll_steps{impl=\"jp\"," + cell + "}", jp_worst);
    obs.registry().set_gauge(
        "mwllsc_sim_ll_step_bound{impl=\"jp\"," + cell + "}", jp_bound);
    obs.registry().set_gauge(
        "mwllsc_sim_ll_impl_bound{impl=\"jp\"," + cell + "}", jp_impl);
    obs.registry().set_gauge(
        "mwllsc_sim_worst_ll_steps{impl=\"am\"," + cell + "}", am_worst);
    obs.registry().set_gauge(
        "mwllsc_sim_ll_step_bound{impl=\"am\"," + cell + "}", am_bound);
    obs.registry().set_gauge(
        "mwllsc_sim_worst_ll_steps{impl=\"retry\"," + cell + "}", adv_rt);
    // Gate each implementation against its own bound: jp against its
    // 3W+6 (and so the paper's 4W+12), am against its O(N*W) formula.
    const bool violated =
        jp_worst > jp_impl || jp_worst > jp_bound || am_worst > am_bound;
    if (violated) {
      std::fprintf(stderr,
                   "BOUND VIOLATION at N=%u W=%u: jp=%u (bound %u, paper %u) "
                   "am=%u (bound %u)\n",
                   n, w, jp_worst, jp_impl, jp_bound, am_worst, am_bound);
      g_all_ok = false;
    }
    table.add_row({TablePrinter::num(std::size_t{n}),
                   TablePrinter::num(std::size_t{w}),
                   TablePrinter::num(std::size_t{jp_bound}),
                   TablePrinter::num(std::size_t{jp_impl}),
                   TablePrinter::num(std::size_t{jp_worst}),
                   TablePrinter::num(std::size_t{am_bound}),
                   TablePrinter::num(std::size_t{am_worst}),
                   TablePrinter::num(std::size_t{adv_rt}),
                   violated ? "VIOLATION" : "ok"});
  }
  table.print();
  if (!reached_fallback) {
    std::fprintf(stderr,
                 "no cell reached 2W+6: the adversary never forced an LL "
                 "through its announced fallback\n");
    g_all_ok = false;
  }

  // Verification-substrate throughput.
  {
    std::printf("\nsimulator characterization:\n");
    WorkloadConfig cfg;
    cfg.ops_per_proc = smoke ? 4000 : 20000;
    SimWorkload<SimJp> wl(3, 4, cfg);
    util::Stopwatch sw;
    const RunResult r = run_random(wl, 1);
    note(r, "characterization random");
    const double secs = sw.elapsed_s();
    std::printf(
        "  random schedule: %.2f Msteps/s with full oracle+I1+I2 checking "
        "(%llu steps, ok=%d)\n",
        static_cast<double>(r.total_steps) / secs / 1e6,
        static_cast<unsigned long long>(r.total_steps), r.ok ? 1 : 0);
  }
  {
    WorkloadConfig cfg;
    cfg.ops_per_proc = 2;
    util::Stopwatch sw;
    const EnumerateResult r =
        enumerate_preemption_bounded<SimJp>(2, 2, cfg, 2, 100000);
    if (!r.ok) {
      std::fprintf(stderr, "INVARIANT FAILURE (CHESS search): %s\n",
                   r.error.c_str());
      g_all_ok = false;
    }
    const double secs = sw.elapsed_s();
    std::printf(
        "  CHESS search:    %.0f schedules/s, %llu schedules with <=2 "
        "preemptions (ok=%d)\n",
        static_cast<double>(r.schedules_explored) / secs,
        static_cast<unsigned long long>(r.schedules_explored), r.ok ? 1 : 0);
  }
  {
    // Crash-stop churn: periodic crash injection + delayed reclamation
    // under the full checker — live processes must stay inside 3W+6 with
    // I1/I2 exact throughout.
    WorkloadConfig cfg;
    cfg.ops_per_proc = smoke ? 2000 : 10000;
    SimWorkload<SimJp> wl(3, 4, cfg);
    ChurnConfig churn;
    churn.sched_seed = 42;
    const RunResult r = run_crash_churn(wl, churn);
    note(r, "crash churn");
    std::printf(
        "  crash churn:     %llu steps, %llu crashes / %llu reclaims, "
        "worst live LL %u steps (bound %u, ok=%d)\n",
        static_cast<unsigned long long>(r.total_steps),
        static_cast<unsigned long long>(wl.crashes_total()),
        static_cast<unsigned long long>(wl.crash_reclaims_total()),
        r.max_ll_steps, SimJp::ll_impl_bound(4), r.ok ? 1 : 0);
  }
  if (!obs.finish()) return 1;
  if (!g_all_ok) {
    std::fprintf(stderr, "\nE9: FAILED — invariant or bound violations\n");
    return 1;
  }
  return 0;
}
