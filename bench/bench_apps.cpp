// E7 — Application-level throughput (the consumers the paper's §1 cites:
// universal constructions, snapshots, wide counters).
//
// Workloads, each driven through the IMwLLSC facade over jp / am / retry /
// lock substrates, so substrate choice is the only variable:
//   * counter   — W-word fetch&add (the introduction's example, widened);
//   * snapshot  — M-component board: writers update their component,
//                 readers take atomic scans;
//   * register  — multiword read/write register, 90% reads;
//   * universal — lock-free retry vs wait-free help-all universal
//                 constructions (apps/), head to head per substrate;
//   * queue     — wait-free MPMC queue served through the universal
//                 construction (past the paper).
// Also prints each substrate's space at the application's geometry: the
// factor-N space claim translated to application terms.
//
// Op accounting counts *committed* SCs only: an LL;SC retry loop broken
// out of by the stop flag contributes nothing, so a run's last in-flight
// attempt is never sold as a completed operation.
//
// Exits nonzero if any wait-free universal or queue run had an apply take
// more than WfUniversal::kMaxAttempts LL/SC rounds, on any substrate.
//
// Run: ./bench_apps                  human tables
//        [--smoke]                   reduced duration/threads for CI
//        [--metrics PATH]            Prometheus text: each table cell as a
//                                    mwllsc_bench_* gauge
//        [--trace PATH]              trace dump + PATH.json Perfetto view
//                                    (MWLLSC_TRACE build)
#include <atomic>
#include <cstdio>

#include "apps/universal.hpp"
#include "apps/wf_queue.hpp"
#include "apps/wf_universal.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

double mops_of(std::uint64_t ops, const util::TimedRun& run) {
  return static_cast<double>(ops) /
         (static_cast<double>(run.measured_ns()) / 1e9) / 1e6;
}

double counter_mops(core::IMwLLSC& obj, unsigned threads,
                    std::uint64_t duration_ns) {
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> total{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::vector<std::uint64_t> cur(obj.words());
    std::uint64_t ops = 0;
    while (!run.should_stop()) {
      for (;;) {  // fetch&add via LL/SC retry
        obj.ll(t, cur.data());
        cur[0] += 1;
        if (obj.sc(t, cur.data())) {
          ++ops;  // committed — only now is it a completed operation
          break;
        }
        if (run.should_stop()) break;
      }
    }
    total.fetch_add(ops, std::memory_order_relaxed);
  });
  return mops_of(total.load(std::memory_order_relaxed), run);
}

double snapshot_scan_mops(core::IMwLLSC& obj, unsigned threads,
                          unsigned writers, std::uint32_t comp_words,
                          std::uint64_t duration_ns) {
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> scans{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::vector<std::uint64_t> buf(obj.words());
    std::uint64_t ops = 0;
    if (t < writers) {
      // Updater of component t: LL, overwrite own slice, SC retry.
      while (!run.should_stop()) {
        for (;;) {
          obj.ll(t, buf.data());
          for (std::uint32_t k = 0; k < comp_words; ++k)
            buf[t * comp_words + k] = ops + k;
          if (obj.sc(t, buf.data())) {
            ++ops;
            break;
          }
          if (run.should_stop()) break;
        }
      }
    } else {
      while (!run.should_stop()) {  // scan = one LL
        obj.ll(t, buf.data());
        ++ops;
      }
      scans.fetch_add(ops, std::memory_order_relaxed);
    }
  });
  return mops_of(scans.load(std::memory_order_relaxed), run);
}

double register_mops(core::IMwLLSC& obj, unsigned threads,
                     std::uint64_t duration_ns) {
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> total{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::vector<std::uint64_t> buf(obj.words());
    util::Xoshiro256 g(t + 1);
    std::uint64_t ops = 0;
    while (!run.should_stop()) {
      if (g.chance(1, 10)) {  // 10% writes
        for (;;) {
          obj.ll(t, buf.data());
          buf[0] = g.next();
          if (obj.sc(t, buf.data())) {
            ++ops;
            break;
          }
          if (run.should_stop()) break;
        }
      } else {
        obj.ll(t, buf.data());
        ++ops;
      }
    }
    total.fetch_add(ops, std::memory_order_relaxed);
  });
  return mops_of(total.load(std::memory_order_relaxed), run);
}

std::size_t shared_words(core::IMwLLSC& obj) {
  return obj.footprint().shared_bytes() / 8;
}

// Universal constructions head to head (paper §1, reference [1]): the
// lock-free LL/SC retry loop vs the wait-free help-all construction, both
// over the same substrate.
struct Counter {
  std::uint64_t v;
};
struct Inc {
  std::uint64_t operator()(Counter& c, const apps::OpDesc&) const {
    return c.v++;
  }
};

using WfCounter = apps::WfUniversal<Counter, Inc>;

/// One run of a universal construction or of the queue built on one; the
/// queue counts each enqueue and each dequeue as one op (one apply).
struct UniversalResult {
  double mops = 0;
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;      // LL/SC rounds
  std::uint64_t max_attempts = 0;  // wait-free runs only
  std::uint64_t scs = 0;  // the substrate's SCs, the initial one included
                          // (queue runs only)
  std::uint64_t lls = 0;  // the substrate's LLs, likewise
};

double per_op(std::uint64_t n, std::uint64_t ops) {
  return ops ? static_cast<double>(n) / static_cast<double>(ops) : 0.0;
}

/// "-" when a very short or stalled run completed nothing, so the table
/// never divides by zero.
std::string per_op_cell(std::uint64_t n, std::uint64_t ops) {
  return ops ? TablePrinter::num(per_op(n, ops), 2) : "-";
}

/// The help-all bound (apps/wf_universal.hpp): no apply takes more than
/// kMaxAttempts LL/SC rounds over a linearizable substrate.
bool rounds_hold(const std::string& what, std::uint64_t max_attempts) {
  if (max_attempts <= WfCounter::kMaxAttempts) return true;
  std::fprintf(stderr, "%s: an apply took %llu LL/SC rounds > %llu\n",
               what.c_str(), static_cast<unsigned long long>(max_attempts),
               static_cast<unsigned long long>(WfCounter::kMaxAttempts));
  return false;
}

UniversalResult run_universal_lf(const apps::Substrate& substrate,
                                 unsigned threads,
                                 std::uint64_t duration_ns) {
  apps::UniversalObject<Counter> obj(threads, Counter{0}, substrate);
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> ops{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::uint64_t mine = 0;
    while (!run.should_stop()) {
      obj.apply(t, [](Counter& c) { c.v++; });
      ++mine;
    }
    ops.fetch_add(mine, std::memory_order_relaxed);
  });
  return {mops_of(ops.load(std::memory_order_relaxed), run), ops.load(std::memory_order_relaxed), obj.attempts_hint()};
}

UniversalResult run_universal_wf(const apps::Substrate& substrate,
                                 unsigned threads,
                                 std::uint64_t duration_ns,
                                 bench::ObsSession& obs,
                                 const std::string& label) {
  WfCounter obj(threads, Counter{0}, substrate);
  obs.bind(obj, label + " wf_universal");
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> ops{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::uint64_t mine = 0;
    while (!run.should_stop()) {
      obj.apply(t, apps::OpDesc{});
      ++mine;
    }
    ops.fetch_add(mine, std::memory_order_relaxed);
  });
  return {mops_of(ops.load(std::memory_order_relaxed), run),
          ops.load(std::memory_order_relaxed), obj.total_attempts(),
          obj.max_attempts()};
}

UniversalResult run_queue(const apps::Substrate& substrate, unsigned threads,
                          std::uint64_t duration_ns, bench::ObsSession& obs,
                          const std::string& label) {
  apps::WfQueue<64> q(threads, substrate);
  obs.bind(q, label + " wf_queue");
  // Relaxed op counter: summed after join(); the join supplies the
  // happens-before for the final read (DESIGN.md §9).
  std::atomic<std::uint64_t> ops{0};
  util::TimedRun run;
  run.run_for(threads, duration_ns, [&](unsigned t) {
    std::uint64_t mine = 0;
    std::uint64_t v = t + 1;
    while (!run.should_stop()) {  // alternate enqueue / dequeue
      q.enqueue(t, v++);
      q.dequeue(t);
      mine += 2;
    }
    ops.fetch_add(mine, std::memory_order_relaxed);
  });
  const std::uint64_t applies = ops.load(std::memory_order_relaxed);
  const core::OpStatsSnapshot s = q.substrate().stats();
  return {mops_of(applies, run), applies, q.total_attempts(),
          q.max_attempts(), s.sc_ops, s.ll_ops};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--smoke"}, {"--metrics", "--trace"});
  const bool smoke = args.has("--smoke");
  const std::uint64_t duration_ns = smoke ? 50'000'000 : 250'000'000;
  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(hw, smoke ? 4u : 16u);
  auto factories = bench::all_factories();
  bench::ObsSession obs(args, threads);
  auto gauge = [&](const char* name, const std::string& labels, double v) {
    obs.registry().set_gauge(obs::MetricsRegistry::labeled(name, labels), v);
  };

  std::printf("E7: application throughput on different LL/SC substrates\n");
  std::printf("threads = %u\n\n", threads);
  bool ok = true;

  {
    std::printf("wide counter (3 limbs), Mops of fetch&add:\n");
    TablePrinter table({"substrate", "Mops", "object words"});
    for (auto& f : factories) {
      auto obj = f.make(threads, 3);
      obs.bind(*obj, f.name + " counter w=3");
      const double mops = counter_mops(*obj, threads, duration_ns);
      const std::string cell = "impl=\"" + f.name + "\",workload=\"counter\"";
      obs.registry().absorb(cell, obj->stats());
      gauge("mwllsc_bench_mops", cell, mops);
      gauge("mwllsc_bench_shared_words", cell,
            static_cast<double>(shared_words(*obj)));
      table.add_row({f.name, TablePrinter::num(mops, 2),
                     TablePrinter::num(shared_words(*obj))});
    }
    table.print();
    std::printf("\n");
  }

  {
    constexpr std::uint32_t kComponents = 8;
    constexpr std::uint32_t kCompWords = 4;
    const unsigned writers = std::min(threads - 1, kComponents);
    std::printf(
        "snapshot board (%u components x %u words), atomic scans, "
        "%u writers:\n",
        kComponents, kCompWords, writers);
    TablePrinter table({"substrate", "scan Mops", "object words"});
    for (auto& f : factories) {
      auto obj = f.make(threads, kComponents * kCompWords);
      obs.bind(*obj, f.name + " snapshot");
      const double mops = snapshot_scan_mops(*obj, threads, writers,
                                             kCompWords, duration_ns);
      const std::string cell = "impl=\"" + f.name + "\",workload=\"snapshot\"";
      obs.registry().absorb(cell, obj->stats());
      gauge("mwllsc_bench_mops", cell, mops);
      gauge("mwllsc_bench_shared_words", cell,
            static_cast<double>(shared_words(*obj)));
      table.add_row({f.name, TablePrinter::num(mops, 2),
                     TablePrinter::num(shared_words(*obj))});
    }
    table.print();
    std::printf("\n");
  }

  {
    std::printf(
        "universal construction (counter op), lock-free retry vs wait-free "
        "help-all, %u threads:\n",
        threads);
    TablePrinter table(
        {"substrate", "construction", "Mops", "attempts/op", "progress"});
    for (auto& f : factories) {
      const UniversalResult lf =
          run_universal_lf(f.make, threads, duration_ns);
      const UniversalResult wf =
          run_universal_wf(f.make, threads, duration_ns, obs, f.name);
      if (!rounds_hold(f.name + " wf_universal", wf.max_attempts)) ok = false;
      table.add_row({f.name, "lock-free (retry)", TablePrinter::num(lf.mops, 2),
                     per_op_cell(lf.attempts, lf.ops),
                     "lock-free (unbounded attempts)"});
      table.add_row({f.name, "wait-free (help-all)",
                     TablePrinter::num(wf.mops, 2),
                     per_op_cell(wf.attempts, wf.ops),
                     "wait-free (<= 3 attempts)"});
      for (const auto* r : {&lf, &wf}) {
        const std::string cell =
            "impl=\"" + f.name + "\",workload=\"universal\",construction=\"" +
            (r == &lf ? "lock_free" : "wait_free") + "\"";
        gauge("mwllsc_bench_mops", cell, r->mops);
        gauge("mwllsc_bench_attempts_per_op", cell,
              per_op(r->attempts, r->ops));
      }
    }
    table.print();
    std::printf("\n");
  }

  {
    std::printf(
        "wait-free MPMC queue (cap 64) via the universal construction, "
        "enqueue+dequeue Mops;\nper apply: LL/SC rounds, substrate SCs and "
        "substrate LLs (a round that confirms\na help with try_read takes no "
        "LL):\n");
    TablePrinter table(
        {"substrate", "Mops", "rounds/apply", "SCs/apply", "LLs/apply"});
    for (auto& f : factories) {
      const UniversalResult r =
          run_queue(f.make, threads, duration_ns, obs, f.name);
      if (!rounds_hold(f.name + " wf_queue", r.max_attempts)) ok = false;
      table.add_row({f.name, TablePrinter::num(r.mops, 2),
                     per_op_cell(r.attempts, r.ops),
                     per_op_cell(r.scs, r.ops), per_op_cell(r.lls, r.ops)});
      const std::string cell = "impl=\"" + f.name + "\",workload=\"queue\"";
      gauge("mwllsc_bench_mops", cell, r.mops);
      gauge("mwllsc_bench_rounds_per_apply", cell, per_op(r.attempts, r.ops));
      gauge("mwllsc_bench_scs_per_apply", cell, per_op(r.scs, r.ops));
      gauge("mwllsc_bench_lls_per_apply", cell, per_op(r.lls, r.ops));
    }
    table.print();
    std::printf("\n");
  }

  {
    std::printf("multiword register (16 words), 90%% reads, Mops:\n");
    TablePrinter table({"substrate", "Mops", "object words"});
    for (auto& f : factories) {
      auto obj = f.make(threads, 16);
      obs.bind(*obj, f.name + " register w=16");
      const double mops = register_mops(*obj, threads, duration_ns);
      const std::string cell = "impl=\"" + f.name + "\",workload=\"register\"";
      obs.registry().absorb(cell, obj->stats());
      gauge("mwllsc_bench_mops", cell, mops);
      gauge("mwllsc_bench_shared_words", cell,
            static_cast<double>(shared_words(*obj)));
      table.add_row({f.name, TablePrinter::num(mops, 2),
                     TablePrinter::num(shared_words(*obj))});
    }
    table.print();
  }

  // Tracing epilogue. The per-process rings keep only the newest events,
  // and the workloads above run the substrates in factory order — so the
  // surviving suffix would be whatever ran last (lock), and the offline
  // checker's jp rules (4W+12, I2) would verify nothing. A short,
  // fixed-op-count jp run — raw RMW plus help-all applies — guarantees the
  // exported file re-confirms the paper's bounds non-vacuously.
  if (obs.tracing()) {
    auto obj = bench::factory_by_name("jp").make(threads, 8);
    obs.bind(*obj, "jp epilogue w=8");
    WfCounter wf(threads, Counter{0}, bench::factory_by_name("jp").make);
    obs.bind(wf, "jp epilogue wf_universal");
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<std::uint64_t> buf(obj->words());
        for (int i = 0; i < 500; ++i) {
          for (;;) {
            obj->ll(t, buf.data());
            buf[0] += 1;
            if (obj->sc(t, buf.data())) break;
          }
        }
        for (int i = 0; i < 200; ++i) wf.apply(t, apps::OpDesc{});
      });
    }
    for (auto& th : pool) th.join();
    obs.registry().absorb("impl=\"jp\",workload=\"epilogue\"", obj->stats());
    if (!rounds_hold("jp epilogue wf_universal", wf.max_attempts())) ok = false;
  }

  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
