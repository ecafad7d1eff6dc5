// E2 — Time complexity (Theorem 1): LL and SC run in O(W), VL in O(1).
//
// Google-benchmark microbenchmark: uncontended single-thread latency of LL,
// SC and VL as W sweeps 1..1024, for the paper's algorithm and the AM-style
// baseline. The expected shape: LL/SC cost grows linearly with W (the
// W-word copies dominate); VL stays flat. AM's SC carries the extra
// help-copy overhead.
//
// Run: ./bench_latency_vs_w                 google-benchmark tables
//      ./bench_latency_vs_w --json PATH     perf-trajectory snapshot
//        [--smoke]                          reduced grid for CI
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "baseline/am_llsc.hpp"
#include "baseline/lock_llsc.hpp"
#include "bench_common.hpp"
#include "core/mwllsc.hpp"
#include "util/timing.hpp"

using namespace mwllsc;

namespace {

template <typename Impl>
void BM_LL(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  Impl obj(2, w);
  std::vector<std::uint64_t> out(w);
  for (auto _ : state) {
    obj.ll(0, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["words"] = w;
}

template <typename Impl>
void BM_LLSC_Pair(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  Impl obj(2, w);
  std::vector<std::uint64_t> value(w);
  for (auto _ : state) {
    obj.ll(0, value.data());
    value[0] += 1;
    const bool ok = obj.sc(0, value.data());
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["words"] = w;
}

template <typename Impl>
void BM_VL(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  Impl obj(2, w);
  std::vector<std::uint64_t> out(w);
  obj.ll(0, out.data());
  for (auto _ : state) {
    const bool ok = obj.vl(0);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["words"] = w;
}

using JP128 = core::MwLLSC<llsc::Dw128LLSC>;
using AM128 = baseline::AmLLSC<llsc::Dw128LLSC>;
using Lock = baseline::LockLLSC;

constexpr std::int64_t kMinW = 1;
constexpr std::int64_t kMaxW = 1024;

}  // namespace

BENCHMARK_TEMPLATE(BM_LL, JP128)->RangeMultiplier(4)->Range(kMinW, kMaxW);
BENCHMARK_TEMPLATE(BM_LL, AM128)->RangeMultiplier(4)->Range(kMinW, kMaxW);
BENCHMARK_TEMPLATE(BM_LL, Lock)->RangeMultiplier(4)->Range(kMinW, kMaxW);

BENCHMARK_TEMPLATE(BM_LLSC_Pair, JP128)
    ->RangeMultiplier(4)
    ->Range(kMinW, kMaxW);
BENCHMARK_TEMPLATE(BM_LLSC_Pair, AM128)
    ->RangeMultiplier(4)
    ->Range(kMinW, kMaxW);
BENCHMARK_TEMPLATE(BM_LLSC_Pair, Lock)
    ->RangeMultiplier(4)
    ->Range(kMinW, kMaxW);

// VL must be flat in W (O(1), Theorem 1).
BENCHMARK_TEMPLATE(BM_VL, JP128)->RangeMultiplier(16)->Range(kMinW, kMaxW);
BENCHMARK_TEMPLATE(BM_VL, AM128)->RangeMultiplier(16)->Range(kMinW, kMaxW);

namespace {

// --json mode: a plain stopwatch sweep over the same shapes, written as a
// BENCH_*.json snapshot (the recorded perf trajectory — see bench_common).
// Uses the IMwLLSC facade so every implementation runs identical driver
// code; the google-benchmark path above stays the precision instrument.
void json_sweep_impl(bench::JsonEmitter& out, const std::string& impl,
                     std::uint32_t w, std::uint64_t iters,
                     bench::ObsSession& obs) {
  auto obj = bench::factory_by_name(impl).make(2, w);
  obs.bind(*obj, impl + " latency w=" + std::to_string(w));
  std::vector<std::uint64_t> value(w);

  util::Stopwatch sw;
  for (std::uint64_t i = 0; i < iters; ++i) obj->ll(0, value.data());
  const double ll_ns = sw.elapsed_s() * 1e9 / static_cast<double>(iters);

  sw.reset();
  for (std::uint64_t i = 0; i < iters; ++i) {
    obj->ll(0, value.data());
    value[0] += 1;
    obj->sc(0, value.data());
  }
  const double pair_ns = sw.elapsed_s() * 1e9 / static_cast<double>(iters);

  obj->ll(0, value.data());
  sw.reset();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const bool ok = obj->vl(0);
    benchmark::DoNotOptimize(ok);
  }
  const double vl_ns = sw.elapsed_s() * 1e9 / static_cast<double>(iters);

  const auto s = obj->stats();
  obs.registry().absorb(
      "impl=\"" + impl + "\",w=\"" + std::to_string(w) + "\"", s);
  for (const auto& [op, ns] :
       {std::pair<const char*, double>{"ll", ll_ns},
        {"llsc_pair", pair_ns},
        {"vl", vl_ns}}) {
    out.begin_row();
    out.field("impl", impl);
    out.field("op", op);
    out.field("w", std::uint64_t{w});
    out.field("ns_per_op", ns);
  }
  // The jp protocol must never break its help guarantee.
  if (impl == "jp" && s.ll_retries != 0) {
    std::fprintf(stderr, "jp counted %llu LL retries at W=%u\n",
                 static_cast<unsigned long long>(s.ll_retries), w);
    std::exit(1);
  }
}

int run_json_sweep(const std::string& path, bool smoke,
                   bench::ObsSession& obs) {
  const std::vector<std::uint32_t> ws =
      smoke ? std::vector<std::uint32_t>{1, 4, 16}
            : std::vector<std::uint32_t>{1, 4, 16, 64, 256, 1024};
  bench::JsonEmitter out("latency_vs_w",
                         "uncontended single-thread latency; LL/SC O(W), "
                         "VL O(1); jp LL bound 4W+12 steps");
  for (const std::uint32_t w : ws) {
    const std::uint64_t iters =
        (smoke ? 200000u : 2000000u) / (w + 16) + 1000;
    for (const char* impl : {"jp", "am", "retry", "lock"}) {
      json_sweep_impl(out, impl, w, iters, obs);
    }
  }
  if (!out.write(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv, 2);
  const std::string json = bench::arg_value(argc, argv, "--json");
  if (!json.empty()) {
    const int rc = run_json_sweep(json, bench::has_flag(argc, argv, "--smoke"),
                                  obs);
    return obs.finish() && rc == 0 ? 0 : 1;
  }
  // The gbench path itself runs untraced.
  std::vector<char*> args = bench::without_obs_flags(argc, argv);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return obs.finish() ? 0 : 1;
}
