// E2 — Time complexity (Theorem 1): LL and SC run in O(W), VL in O(1).
//
// Uncontended single-thread latency of LL, an LL;SC pair and VL as W
// sweeps 1..1024, for every implementation through the IMwLLSC facade, so
// all four run identical driver code. Expected shape: LL and the pair grow
// linearly with W (the W-word copies dominate) while VL stays flat, which
// is why the paper exposes VL as the "did anything change?" probe instead
// of a re-read LL. am's LL carries an extra private W-word copy.
//
// Each cell loops its operation for a fixed wall time after an untimed
// warm-up of the same length. The results feed checks, and the run exits
// nonzero if one fails: every uncontended SC must commit, every VL after
// an LL must return true, and jp must count no LL retry.
//
// Run: ./bench_latency_vs_w                 tables
//        [--smoke]                          W <= 16, 5 ms cells
//        [--json PATH]                      also a perf-trajectory snapshot
//        [--trace PATH] [--metrics PATH]    obs/ export (bench_common.hpp)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mwllsc;
using util::TablePrinter;

namespace {

// ns per call of `op` over a `duration_ns` window, after an untimed
// warm-up window of the same length on the same thread. The clock is read
// once per batch of calls, so it adds nothing measurable even to a VL.
template <class Op>
double ns_per_op(std::uint64_t duration_ns, Op op) {
  constexpr std::uint64_t kBatch = 256;
  std::uint64_t elapsed = 0;
  std::uint64_t calls = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t start = util::now_ns();
    calls = 0;
    do {
      for (std::uint64_t i = 0; i < kBatch; ++i) op();
      calls += kBatch;
      elapsed = util::now_ns() - start;
    } while (elapsed < duration_ns);
  }
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json = bench::arg_value(argc, argv, "--json");
  const std::uint64_t duration_ns = smoke ? 5'000'000 : 20'000'000;
  const std::vector<std::uint32_t> ws =
      smoke ? std::vector<std::uint32_t>{1, 4, 16}
            : std::vector<std::uint32_t>{1, 4, 16, 64, 256, 1024};
  const auto factories = bench::all_factories();
  bench::ObsSession obs(argc, argv, 2);
  bench::JsonEmitter out("latency_vs_w",
                         "uncontended single-thread latency; LL/SC O(W), "
                         "VL O(1); jp LL bound 4W+12 steps");

  const char* const kOps[] = {"ll", "llsc_pair", "vl"};
  const char* const kTitles[] = {"LL, O(W)", "LL;SC pair, O(W)",
                                 "VL, O(1): flat in W"};
  std::vector<std::string> header = {"W"};
  for (const auto& f : factories) header.push_back(f.name);
  std::vector<TablePrinter> tables(3, TablePrinter(header));

  std::printf("E2: uncontended single-thread latency, ns per operation\n\n");
  bool ok = true;
  for (const std::uint32_t w : ws) {
    std::vector<std::vector<std::string>> rows(
        3, {TablePrinter::num(std::size_t{w})});
    for (const auto& f : factories) {
      auto obj = f.make(2, w);
      obs.bind(*obj, f.name + " latency w=" + std::to_string(w));
      std::vector<std::uint64_t> value(w);
      std::uint64_t failed_scs = 0;
      std::uint64_t false_vls = 0;
      double ns[3];
      ns[0] = ns_per_op(duration_ns, [&] { obj->ll(0, value.data()); });
      ns[1] = ns_per_op(duration_ns, [&] {
        obj->ll(0, value.data());
        value[0] += 1;
        if (!obj->sc(0, value.data())) ++failed_scs;
      });
      obj->ll(0, value.data());
      ns[2] = ns_per_op(duration_ns, [&] {
        if (!obj->vl(0)) ++false_vls;
      });

      const auto s = obj->stats();
      obs.registry().absorb(
          "impl=\"" + f.name + "\",w=\"" + std::to_string(w) + "\"", s);
      const std::uint64_t retries = f.name == "jp" ? s.ll_retries : 0;
      if (failed_scs != 0 || false_vls != 0 || retries != 0) {
        std::fprintf(stderr,
                     "%s W=%u: %llu failed uncontended SCs, %llu false VLs, "
                     "%llu LL retries\n",
                     f.name.c_str(), w,
                     static_cast<unsigned long long>(failed_scs),
                     static_cast<unsigned long long>(false_vls),
                     static_cast<unsigned long long>(retries));
        ok = false;
      }
      for (int op = 0; op < 3; ++op) {
        rows[op].push_back(TablePrinter::num(ns[op], 1));
        out.begin_row();
        out.field("impl", f.name);
        out.field("op", kOps[op]);
        out.field("w", std::uint64_t{w});
        out.field("ns_per_op", ns[op]);
      }
    }
    for (int op = 0; op < 3; ++op) tables[op].add_row(std::move(rows[op]));
  }

  for (int op = 0; op < 3; ++op) {
    std::printf("%s\n", kTitles[op]);
    tables[op].print();
    std::printf("\n");
  }

  if (!out.write(json)) ok = false;
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
