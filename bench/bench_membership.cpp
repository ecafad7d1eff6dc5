// E10: process-lifecycle churn on the managed jp object (DESIGN.md §10).
//
// Three scenarios over ManagedMwLLSC<jp>:
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
//              degradation) shows up in the trajectory. The reaper and the
//              join-path sweeps usually recycle an abandoned slot before a
//              joiner runs out of retries, so on a small machine churn
//              seldom degrades at all.
//   exhausted  threads == 2 x slots, no abandons, no reaper: whenever every
//              slot is held, a joiner falls over to the degraded pid, whose
//              LL..SC windows take turns under the FIFO ticket lock. At
//              full size (16 threads) it oversubscribes a small machine,
//              where a FIFO spin lock can convoy. How many joins degrade
//              depends on how fast slots turn over, so it varies with the
//              machine and with the lock.
//
// Every scenario verifies the shared counter equals the number of successful
// SCs before reporting, so a row is also a correctness witness.
//
// Usage:
//   ./bench_membership                  human tables
//   ./bench_membership --json PATH      perf-trajectory snapshot (plus tables)
//     [--smoke]                         reduced duration/threads for CI
//     [--trace PATH | --metrics PATH]   obs/ exports (DESIGN.md §8)
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/mwllsc.hpp"
#include "util/table.hpp"
#include "membership/managed.hpp"
#include "util/barrier.hpp"

using namespace mwllsc;

namespace {

using Jp = core::MwLLSC<llsc::Dw128LLSC>;
using Managed = membership::ManagedMwLLSC<Jp>;

struct ChurnResult {
  double seconds = 0;
  std::uint64_t sc_successes = 0;
  std::uint64_t sessions = 0;
  membership::MembershipSnapshot mem;
};

// One worker's life: `sessions` leases, each doing `ops` successful
// fetch&adds on the shared W-word counter; abandon (cooperative crash)
// every `abandon_every`-th lease instead of retiring (0 = never).
void worker(Managed& m, std::uint64_t sessions, std::uint64_t ops,
            std::uint64_t abandon_every, std::uint64_t thread_seed) {
  std::vector<std::uint64_t> buf(m.words());
  for (std::uint64_t s = 0; s < sessions; ++s) {
    auto sess = m.join();
    for (std::uint64_t i = 0; i < ops; ++i) {
      for (;;) {
        sess.ll(buf.data());
        buf[0] += 1;
        if (sess.sc(buf.data())) break;
      }
    }
    if (abandon_every != 0 && !sess.degraded() &&
        (s + thread_seed) % abandon_every == 0) {
      sess.abandon();
    }
    // else: ~Session retires cleanly.
  }
}

ChurnResult run_scenario(Managed& m, unsigned threads,
                         std::uint64_t sessions_per_thread,
                         std::uint64_t ops_per_session,
                         std::uint64_t abandon_every) {
  std::atomic<bool> done{false};
  // Sweeps while the workers churn: recycles abandoned slots. Without
  // abandons there is nothing for it to recycle.
  std::thread reaper([&] {
    while (abandon_every != 0 && !done.load(std::memory_order_acquire)) {
      m.reclaim_scan();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // Workers start together: a staggered start lets early threads finish
  // before late ones spawn, and then slots never run out.
  util::SpinBarrier start(threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      worker(m, sessions_per_thread, ops_per_session, abandon_every, t);
    });
  }
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  done.store(true, std::memory_order_release);
  reaper.join();
  m.reclaim_scan();  // settle the last abandons

  ChurnResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.sessions = std::uint64_t{threads} * sessions_per_thread;
  r.sc_successes = std::uint64_t{threads} * sessions_per_thread *
                   ops_per_session;
  r.mem = m.membership();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::arg_value(argc, argv, "--json");
  const bool smoke = bench::has_flag(argc, argv, "--smoke");

  const std::uint32_t kWords = 4;
  const std::uint32_t slots = smoke ? 4u : 8u;
  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  const unsigned churn_threads = std::min(hw * 2, smoke ? 8u : 16u);
  const std::uint64_t sessions = smoke ? 64 : 512;
  const std::uint64_t ops = smoke ? 64 : 256;
  const std::uint64_t abandon_every = 5;

  bench::ObsSession obs(argc, argv, /*nprocs=*/slots + 1);
  bench::JsonEmitter out("membership",
                         "join/retire/crash-reclaim churn on managed jp");

  std::printf("E10: membership churn (jp, W=%u, %u slots)\n\n", kWords,
              slots);
  util::TablePrinter table({"scenario", "threads", "joins/s", "Mops",
                             "degraded %", "reclaims", "retries"});

  struct Scenario {
    const char* name;
    unsigned threads;
    std::uint64_t abandon_every;
  };
  const Scenario scenarios[] = {
      {"steady", slots, 0},
      {"churn", churn_threads, abandon_every},
      {"exhausted", 2 * slots, 0},
  };
  bool ok = true;
  for (const auto& sc : scenarios) {
    Managed m(slots, kWords);
    obs.bind(m, "jp managed w=" + std::to_string(kWords) + " slots=" +
                    std::to_string(slots) + " " + sc.name);
    const ChurnResult r =
        run_scenario(m, sc.threads, sessions, ops, sc.abandon_every);

    // Correctness witness: the counter saw exactly one increment per
    // successful SC, across joins, retirements, crashes, and recycling.
    std::vector<std::uint64_t> buf(m.words());
    auto probe = m.join();
    probe.ll(buf.data());
    if (buf[0] != r.sc_successes ||
        m.stats().sc_success != r.sc_successes) {
      std::fprintf(stderr,
                   "%s: counter %llu != %llu expected successful SCs\n",
                   sc.name, static_cast<unsigned long long>(buf[0]),
                   static_cast<unsigned long long>(r.sc_successes));
      ok = false;
    }
    probe.retire();

    const double joins_per_s =
        static_cast<double>(r.mem.joins + r.mem.degraded_joins) / r.seconds;
    const double mops =
        static_cast<double>(r.sc_successes) / r.seconds / 1e6;
    const double degraded_pct =
        100.0 * static_cast<double>(r.mem.degraded_joins) /
        static_cast<double>(r.mem.joins + r.mem.degraded_joins);
    table.add_row({sc.name, util::TablePrinter::num(sc.threads),
                   util::TablePrinter::num(joins_per_s, 0),
                   util::TablePrinter::num(mops, 2),
                   util::TablePrinter::num(degraded_pct, 2),
                   util::TablePrinter::num(r.mem.crash_reclaims),
                   util::TablePrinter::num(r.mem.join_retries)});

    out.begin_row();
    out.field("scenario", sc.name);
    out.field("impl", "jp");
    out.field("slots", std::uint64_t{slots});
    out.field("threads", std::uint64_t{sc.threads});
    out.field("sessions", r.sessions);
    out.field("ops_per_session", ops);
    out.field("joins_per_sec", joins_per_s);
    out.field("mops", mops);
    out.field("degraded_fraction",
              static_cast<double>(r.mem.degraded_joins) /
                  static_cast<double>(r.mem.joins + r.mem.degraded_joins));
    out.field("join_retries", r.mem.join_retries);
    out.field("crash_reclaims", r.mem.crash_reclaims);
    out.field("scans", r.mem.scans);

    m.export_metrics(obs.registry(),
                     "impl=\"jp\",scenario=\"" + std::string(sc.name) +
                         "\"");
    obs.registry().absorb("impl=\"jp\",scenario=\"" + std::string(sc.name) +
                              "\"",
                          m.stats());
  }
  table.print();
  std::printf("\n");

  if (!json_path.empty()) {
    if (!out.write(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
