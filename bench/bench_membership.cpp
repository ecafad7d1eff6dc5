// E10: process-lifecycle churn on the managed jp object (DESIGN.md §10).
//
// Three scenarios over ManagedMwLLSC<jp>, each a timed row of 250 ms
// (50 ms with --smoke) on util::TimedRun, after one untimed warm-up row:
// idle vCPUs can keep a new process's threads on one CPU for its first few
// hundred ms, and then a row measures thread placement, not contention.
//
//   steady     threads == slots; each thread cycles join -> K fetch&adds ->
//              retire. Measures the clean lease turnover rate: every join
//              is a first-try wait-free slot claim, nothing ever degrades.
//   churn      min(2 x max(hw, 4), 16) threads (8 with --smoke) with
//              cooperative crashes: every A-th session abandon()s its slot
//              mid-lease (the crash seam the fault-injection tests drive)
//              while a reaper thread runs reclaim_scan()s. Joins race
//              retirements, reclamations, and each other. Measures
//              throughput under membership pressure and reports the
//              degraded fraction, so a slower recycling path (more
//              degradation) shows up in the table. The reaper and the
//              join-path sweeps usually recycle an abandoned slot before a
//              joiner runs out of retries, so on a small machine churn
//              seldom degrades at all.
//   exhausted  `slots` idle holders keep every slot leased for the whole
//              row, so every join of its 2 x slots workers falls over to
//              the degraded pid, whose LL..SC windows take turns under the
//              FIFO ticket lock: the row measures the degraded path itself.
//              At full size (16 workers) it oversubscribes a small machine,
//              where a FIFO spin lock can convoy.
//
// Every scenario verifies the shared counter equals the workers' tally of
// successful SCs before reporting, so a row is also a correctness witness.
//
// Usage:
//   ./bench_membership                  human tables
//     [--smoke]                         reduced duration/threads for CI
//     [--metrics PATH]                  Prometheus text: each row's
//                                       mwllsc_bench_{mops,joins_per_sec}
//                                       beside its mwllsc_membership_*
//     [--trace PATH]                    trace dump (DESIGN.md §8)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/mwllsc.hpp"
#include "membership/managed.hpp"
#include "util/table.hpp"

using namespace mwllsc;

namespace {

using Jp = core::MwLLSC<llsc::Dw128LLSC>;
using Managed = membership::ManagedMwLLSC<Jp>;

struct Scenario {
  const char* name;
  unsigned threads;
  std::uint64_t abandon_every;  // 0 = never
  std::uint32_t idle_holders;
};

struct Tally {
  std::uint64_t leases = 0;
  std::uint64_t sc_successes = 0;
};

struct ChurnResult {
  double seconds = 0;
  Tally total;
  membership::MembershipSnapshot mem;
};

// One worker's row: leases until the run stops, each doing `ops` successful
// fetch&adds on the shared W-word counter; abandon (cooperative crash)
// every `abandon_every`-th lease instead of retiring (0 = never).
Tally worker(Managed& m, const util::TimedRun& run, std::uint64_t ops,
             std::uint64_t abandon_every, std::uint64_t thread_seed) {
  Tally tally;
  std::vector<std::uint64_t> buf(m.words());
  while (!run.should_stop()) {
    auto sess = m.join();
    for (std::uint64_t i = 0; i < ops; ++i) {
      for (;;) {
        sess.ll(buf.data());
        buf[0] += 1;
        if (sess.sc(buf.data())) break;
      }
      ++tally.sc_successes;
    }
    if (abandon_every != 0 && !sess.degraded() &&
        (tally.leases + thread_seed) % abandon_every == 0) {
      sess.abandon();
    }
    // else: ~Session retires cleanly.
    ++tally.leases;
  }
  return tally;
}

ChurnResult run_scenario(Managed& m, const Scenario& sc,
                         std::uint64_t duration_ns, std::uint64_t ops) {
  std::vector<Managed::Session> holders;
  for (std::uint32_t i = 0; i < sc.idle_holders; ++i) {
    holders.push_back(m.join());
  }
  // With abandons, one more thread (t == sc.threads) sweeps while the
  // workers churn: it recycles abandoned slots. Without abandons there is
  // nothing for it to recycle.
  std::vector<Tally> tallies(sc.threads);
  util::TimedRun run;
  run.run_for(sc.threads + (sc.abandon_every != 0 ? 1 : 0), duration_ns,
              [&](unsigned t) {
                if (t < sc.threads) {
                  tallies[t] = worker(m, run, ops, sc.abandon_every, t);
                  return;
                }
                while (!run.should_stop()) {
                  m.reclaim_scan();
                  std::this_thread::sleep_for(std::chrono::microseconds(200));
                }
              });
  m.reclaim_scan();  // settle the last abandons
  holders.clear();   // the idle holders retire

  ChurnResult r;
  r.seconds = static_cast<double>(run.measured_ns()) / 1e9;
  for (const Tally& t : tallies) {
    r.total.leases += t.leases;
    r.total.sc_successes += t.sc_successes;
  }
  r.mem = m.membership();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--smoke"}, {"--metrics", "--trace"});
  const bool smoke = args.has("--smoke");

  const std::uint32_t kWords = 4;
  const std::uint32_t slots = smoke ? 4u : 8u;
  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  const unsigned churn_threads = std::min(hw * 2, smoke ? 8u : 16u);
  const std::uint64_t duration_ns = smoke ? 50'000'000 : 250'000'000;
  const std::uint64_t ops = smoke ? 64 : 256;
  const std::uint64_t abandon_every = 5;

  bench::ObsSession obs(args, /*nprocs=*/slots + 1);

  std::printf("E10: membership churn (jp, W=%u, %u slots)\n\n", kWords,
              slots);
  util::TablePrinter table({"scenario", "threads", "joins/s", "Mops",
                             "degraded %", "reclaims", "retries"});

  const Scenario scenarios[] = {
      {"steady", slots, 0, 0},
      {"churn", churn_threads, abandon_every, 0},
      {"exhausted", 2 * slots, 0, slots},
  };
  {
    Managed warm_up(slots, kWords);
    run_scenario(warm_up, scenarios[0], duration_ns, ops);
  }
  bool ok = true;
  for (const auto& sc : scenarios) {
    Managed m(slots, kWords);
    obs.bind(m, "jp managed w=" + std::to_string(kWords) + " slots=" +
                    std::to_string(slots) + " " + sc.name);
    const ChurnResult r = run_scenario(m, sc, duration_ns, ops);

    // Correctness witness: the counter saw exactly one increment per
    // successful SC, across joins, retirements, crashes, and recycling.
    std::vector<std::uint64_t> buf(m.words());
    auto probe = m.join();
    probe.ll(buf.data());
    if (buf[0] != r.total.sc_successes ||
        m.stats().sc_success != r.total.sc_successes) {
      std::fprintf(stderr,
                   "%s: counter %llu != %llu successful SCs tallied\n",
                   sc.name, static_cast<unsigned long long>(buf[0]),
                   static_cast<unsigned long long>(r.total.sc_successes));
      ok = false;
    }
    probe.retire();

    const double leases = static_cast<double>(r.total.leases);
    const double joins_per_s = leases / r.seconds;
    const double mops =
        static_cast<double>(r.total.sc_successes) / r.seconds / 1e6;
    const double degraded =
        static_cast<double>(r.mem.degraded_joins) / leases;
    table.add_row({sc.name, util::TablePrinter::num(sc.threads),
                   util::TablePrinter::num(joins_per_s, 0),
                   util::TablePrinter::num(mops, 2),
                   util::TablePrinter::num(100.0 * degraded, 2),
                   util::TablePrinter::num(r.mem.crash_reclaims),
                   util::TablePrinter::num(r.mem.join_retries)});

    const std::string row =
        "impl=\"jp\",scenario=\"" + std::string(sc.name) + "\"";
    m.export_metrics(obs.registry(), row);
    obs.registry().absorb(row, m.stats());
    obs.registry().set_gauge(
        obs::MetricsRegistry::labeled("mwllsc_bench_mops", row), mops);
    obs.registry().set_gauge(
        obs::MetricsRegistry::labeled("mwllsc_bench_joins_per_sec", row),
        joins_per_s);
  }
  table.print();
  std::printf("\n");

  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
