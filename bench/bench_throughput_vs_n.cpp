// E3 — Contended throughput vs thread count (the paper's §1 motivation:
// lock-free objects avoid the serialization and convoying of locks), and
// what the same runs say about SC failures and helping.
//
// One sweep runs each cell of W in {4, 16, 64} x threads x implementation
// once: every thread loops { LL; modify; SC } on one shared W-word object.
// Per W, three tables read those cells:
//   * throughput, million LL;SC pairs per second. Expected shape: jp and
//     am track each other (same helping schedule; am's copy-based help
//     costs an extra copy that jp's ownership exchange avoids), retry is
//     fastest at low contention but collapses for readers under write
//     storms (see E8), and lock serializes.
//   * SC success, successful / attempted SCs, beside 1/threads. LL/SC
//     failures are semantic (an SC fails iff another successful SC
//     intervened), never spurious, so all four read ~100% uncontended and
//     ~1/threads saturated.
//   * jp's helping rates (paper §2.2): helped LLs (Line 4 found a donated
//     buffer), line-7 rescues (the LL returned the donated value) and help
//     installs (SCs that made the ownership exchange) per 1000 LLs, and
//     bank writes (Line 13) per 1000 successful SCs. They grow with
//     contention and W, yet never touch the O(W) step bound.
// A disjoint-access table follows: K independent objects, the common case.
//
// The run exits nonzero if a jp cell counted an LL retry (its help
// guarantee broke) or a jp or am cell's bank writes differ from its
// successful SCs (invariant I2).
//
// Run: ./bench_throughput_vs_n               tables
//        [--smoke]                           W = 4, <= 2 threads, 50 ms cells
//        [--json PATH]                       also a perf-trajectory snapshot
//        [--trace PATH] [--metrics PATH]     obs/ export (bench_common.hpp)
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

std::string pct(double ratio) {
  return TablePrinter::num(100.0 * ratio, 1) + "%";
}

double per_k(std::uint64_t count, std::uint64_t base) {
  return base ? 1000.0 * static_cast<double>(count) /
                    static_cast<double>(base)
              : 0.0;
}

// jp's help guarantee (no LL retries) and I2 (one bank write per
// successful SC) for the substrates that count them.
bool cell_holds(const std::string& impl, std::uint32_t w, unsigned threads,
                const core::OpStatsSnapshot& s) {
  bool ok = true;
  if (impl == "jp" && s.ll_retries != 0) {
    std::fprintf(stderr, "jp W=%u threads=%u: %llu LL retries\n", w, threads,
                 static_cast<unsigned long long>(s.ll_retries));
    ok = false;
  }
  if ((impl == "jp" || impl == "am") && s.bank_writes != s.sc_success) {
    std::fprintf(stderr,
                 "%s W=%u threads=%u: %llu bank writes != %llu successful "
                 "SCs (I2)\n",
                 impl.c_str(), w, threads,
                 static_cast<unsigned long long>(s.bank_writes),
                 static_cast<unsigned long long>(s.sc_success));
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json = bench::arg_value(argc, argv, "--json");
  const std::uint64_t duration_ns = smoke ? 50'000'000 : 250'000'000;
  const auto threads = bench::scaling_thread_counts(smoke ? 2 : 0);
  const std::vector<std::uint32_t> ws =
      smoke ? std::vector<std::uint32_t>{4}
            : std::vector<std::uint32_t>{4, 16, 64};
  const auto factories = bench::all_factories();
  bench::ObsSession obs(argc, argv, threads.back());
  bench::JsonEmitter out("throughput_vs_n",
                         "contended { LL; modify; SC } pairs, million/s, "
                         "one shared W-word object");

  std::printf(
      "E3: throughput under contention\n"
      "every thread loops { LL; modify; SC } on one shared W-word object\n\n");

  std::vector<std::string> impl_header = {"threads"};
  for (const auto& f : factories) impl_header.push_back(f.name);
  std::vector<std::string> success_header = impl_header;
  success_header.push_back("1/threads");

  bool ok = true;
  for (const std::uint32_t w : ws) {
    TablePrinter mops(impl_header);
    TablePrinter success(success_header);
    TablePrinter help({"threads", "helped LLs", "line-7 rescues",
                       "help installs", "bank writes"});
    for (const unsigned t : threads) {
      std::vector<std::string> mops_row = {TablePrinter::num(std::size_t{t})};
      std::vector<std::string> success_row = mops_row;
      for (const auto& f : factories) {
        auto obj = f.make(t, w);
        obs.bind(*obj, f.name + " rmw w=" + std::to_string(w) + " n=" +
                           std::to_string(t));
        const auto r = bench::run_rmw_throughput(*obj, t, duration_ns);
        const auto& s = r.stats;
        obs.registry().absorb("impl=\"" + f.name + "\",w=\"" +
                                  std::to_string(w) + "\",threads=\"" +
                                  std::to_string(t) + "\"",
                              s);
        if (!cell_holds(f.name, w, t, s)) ok = false;
        mops_row.push_back(TablePrinter::num(r.mops, 2));
        success_row.push_back(pct(r.sc_success_rate));
        if (f.name == "jp") {
          help.add_row(
              {TablePrinter::num(std::size_t{t}),
               TablePrinter::num(per_k(s.ll_helped, s.ll_ops), 2),
               TablePrinter::num(per_k(s.ll_used_helped_value, s.ll_ops), 2),
               TablePrinter::num(per_k(s.helps_given, s.ll_ops), 2),
               TablePrinter::num(per_k(s.bank_writes, s.sc_success), 2)});
        }
        out.begin_row();
        out.field("impl", f.name);
        out.field("threads", std::uint64_t{t});
        out.field("w", std::uint64_t{w});
        out.field("mops", r.mops);
        out.field("sc_success_rate", r.sc_success_rate);
      }
      success_row.push_back(pct(1.0 / t));
      mops.add_row(std::move(mops_row));
      success.add_row(std::move(success_row));
    }
    std::printf("W = %u words: million LL;SC pairs per second\n", w);
    mops.print();
    std::printf("\nW = %u words: SC success (successful / attempted SCs)\n",
                w);
    success.print();
    std::printf(
        "\nW = %u words: jp helping, per 1000 LLs (bank writes per 1000 "
        "successful SCs)\n",
        w);
    help.print();
    std::printf("\n");
  }

  // Disjoint-access scaling: K independent objects, each thread works on a
  // random object per op. With contention spread across objects, the
  // CAS-based implementations scale again — the single-object tables above
  // measure the worst case, this one the common case.
  {
    constexpr std::uint32_t kObjects = 32;
    constexpr std::uint32_t kW = 8;
    std::printf("disjoint-access scaling: %u independent objects, W = %u\n",
                kObjects, kW);
    TablePrinter table(impl_header);
    for (unsigned t : threads) {
      std::vector<std::string> row = {TablePrinter::num(std::size_t{t})};
      for (auto& f : factories) {
        std::vector<std::unique_ptr<core::IMwLLSC>> objs;
        for (std::uint32_t k = 0; k < kObjects; ++k)
          objs.push_back(f.make(t, kW));
        // Relaxed op counter: summed after join(); the join supplies the
        // happens-before for the final read (DESIGN.md §9).
        std::atomic<std::uint64_t> pairs{0};
        util::TimedRun run;
        run.run_for(t, duration_ns, [&](unsigned tid) {
          std::vector<std::uint64_t> value(kW);
          util::Xoshiro256 g(tid + 1);
          std::uint64_t mine = 0;
          while (!run.should_stop()) {
            core::IMwLLSC& obj = *objs[g.next_below(kObjects)];
            obj.ll(tid, value.data());
            value[0] += 1;
            obj.sc(tid, value.data());
            ++mine;
          }
          pairs.fetch_add(mine, std::memory_order_relaxed);
        });
        row.push_back(TablePrinter::num(
            static_cast<double>(pairs.load(std::memory_order_relaxed)) /
                (static_cast<double>(run.measured_ns()) / 1e9) / 1e6,
            2));
      }
      table.add_row(std::move(row));
    }
    table.print();
  }

  if (!out.write(json)) ok = false;
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
