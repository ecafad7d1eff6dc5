// obs/ layer tests, compiled WITH MWLLSC_TRACE (see tests/CMakeLists.txt;
// test_obs_off covers the compiled-out configuration):
//   * ring semantics — wraparound keeps the newest events, dropped counts
//     the evicted prefix;
//   * live tracing of the real protocol under threads, replayed through
//     check_trace: zero jp LL retries and I2 re-verified from events
//     alone; a forced fallback + rescue traces one fallback and one rescue
//     and costs exactly 3W+6 steps;
//   * exact dump round trip — load_trace(write_trace(d)) == d for every
//     trace collected here and for a hand-built stream whose inner events
//     sit inside LL and SC windows;
//   * truncated traces pass (prefix loss is not a violation);
//   * the checker actually rejects bad traces (synthetic violations), and
//     the loader refuses a dump cut short anywhere;
//   * the output-only Perfetto view: windows, donation flows, orphan
//     closes and the metadata trailer;
//   * apps-layer events and the <= 3-round apply bound;
//   * the tag contract on every substrate: ll_fast carries the linked
//     tag, sc_commit the version it installed;
//   * MetricsRegistry absorption + Prometheus export.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "apps/wf_universal.hpp"
#include "bench_common.hpp"
#include "core/mwllsc.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_check.hpp"

using namespace mwllsc;
using Jp = core::MwLLSC<llsc::Dw128LLSC>;  // the LL bounds' one definition

#if !defined(MWLLSC_TRACE)
#error "test_obs must be compiled with MWLLSC_TRACE (see tests/CMakeLists)"
#endif

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CHECK(in.good());
  return {std::istreambuf_iterator<char>(in), {}};
}

/// load_trace(write_trace(d)) hands back d field by field and in order.
void check_reloads(const obs::TraceData& d) {
  const std::string path = "test_obs_roundtrip.trace";
  obs::TraceData loaded;
  std::string err;
  CHECK(obs::write_trace(path, d, &err));
  CHECK(obs::load_trace(path, &loaded, &err));
  CHECK(loaded == d);
  std::remove(path.c_str());
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos; ++n) {
    at = text.find(needle, at + 1);
  }
  return n;
}

obs::TraceEvent ev(obs::EventKind k, std::uint16_t pid, std::uint32_t var,
                   std::uint64_t tag = 0, std::uint32_t arg = 0) {
  obs::TraceEvent e;
  static std::uint64_t tsc = 1000;
  e.tsc = tsc += 10;
  e.tag = tag;
  e.var = var;
  e.arg = arg;
  e.kind = static_cast<std::uint16_t>(k);
  e.pid = pid;
  return e;
}

void ring_wraparound() {
  obs::TraceRing ring;
  ring.init(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.record(obs::EventKind::kLlStart, 0, 0, i, 0);
  }
  CHECK_EQ(ring.recorded(), 20u);
  CHECK_EQ(ring.dropped(), 12u);
  const auto snap = ring.snapshot();
  CHECK_EQ(snap.size(), 8u);
  // The newest events win: tags 12..19 in recording order.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    CHECK_EQ(snap[i].tag, 12 + i);
  }
}

void handle_binding() {
  obs::TraceSink sink(2);
  obs::TraceHandle h;
  CHECK(!h.bound());
  h.emit(obs::EventKind::kLlStart, 0, 1, 2);  // unbound: dropped, no crash
  h.bind(&sink, 7);
  CHECK(h.bound());
  h.emit(obs::EventKind::kLlStart, 1, 42, 3);
  h.emit(obs::EventKind::kLlFast, 99, 0, 0);  // out-of-range pid: dropped
  const auto d = sink.collect();
  CHECK_EQ(d.total_events(), 1u);
  CHECK_EQ(d.per_pid[1].size(), 1u);
  CHECK_EQ(d.per_pid[1][0].var, 7u);
  CHECK_EQ(d.per_pid[1][0].tag, 42u);
  CHECK_EQ(d.per_pid[1][0].arg, 3u);
  check_reloads(d);
}

/// Traces the real protocol under contention and replays the rings through
/// the checker: 4W+12 and I2 re-verified from events alone.
obs::TraceData traced_protocol_mt() {
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kW = 5;
  constexpr std::uint64_t kOps = 4000;

  obs::TraceConfig cfg;
  cfg.capacity = 1u << 16;  // no wraparound: every event survives
  obs::TraceSink sink(kThreads, cfg);
  core::MwLLSC<llsc::Dw128LLSC> obj(kThreads, kW);
  obj.set_trace(&sink, 0);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint64_t> buf(kW);
      for (std::uint64_t i = 0; i < kOps; ++i) {
        obj.ll(t, buf.data());
        buf[0] += 1;
        obj.sc(t, buf.data());
      }
    });
  }
  for (auto& th : pool) th.join();

  obs::TraceData d = sink.collect();
  CHECK_EQ(d.per_pid.size(), kThreads);
  for (unsigned t = 0; t < kThreads; ++t) CHECK_EQ(d.dropped[t], 0u);
  const obs::TraceData::VarInfo* info = d.var_info(0);
  CHECK(info != nullptr);
  CHECK_EQ(info->words, kW);
  CHECK(info->label.rfind("jp", 0) == 0);

  const auto r = obs::check_trace(d);
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK(!r.truncated);
  CHECK_EQ(r.lls_checked, kThreads * kOps);
  CHECK(r.sc_commits > 0);
  CHECK_EQ(r.sc_commits, r.bank_writes);

  // The counter snapshot and the trace must agree on the successful SCs.
  const auto s = obj.stats();
  CHECK_EQ(r.sc_commits, s.sc_success);
  CHECK_EQ(r.bank_writes, s.bank_writes);
  return d;
}

/// Events inside a window (ll_helped and a fallback inside an LL,
/// help_install inside an SC) keep their place, tags, args and tsc
/// through the dump.
void dump_keeps_stream_exact() {
  using obs::EventKind;
  obs::TraceData d;
  d.vars.push_back({0, 4, "jp w=4"});
  d.per_pid = {{ev(EventKind::kLlStart, 0, 0, 7),
                ev(EventKind::kLlFallback, 0, 0, 7),
                ev(EventKind::kLlHelped, 0, 0, 7, 3),
                ev(EventKind::kLlFast, 0, 0, 42),
                ev(EventKind::kScAttempt, 0, 0, 0, 1),
                ev(EventKind::kHelpInstall, 0, 0, 9, 1),
                ev(EventKind::kScCommit, 0, 0, 43),
                ev(EventKind::kBankWrite, 0, 0, 43, 5)}};
  d.dropped = {0};
  d.tsc0 = 900;
  d.ns_per_tick = 0.37;
  CHECK(obs::check_trace(d).ok());
  check_reloads(d);
}

/// The Perfetto view is output only, so nothing round-trips it; check it
/// directly on a hand-built two-pid stream.
void chrome_view() {
  using obs::EventKind;
  obs::TraceData d;
  d.vars.push_back({0, 2, "jp w=2"});
  d.per_pid.resize(2);
  d.dropped = {3, 0};  // pid 0's ring evicted a prefix
  d.per_pid[0] = {ev(EventKind::kLlFast, 0, 0),  // orphan close
                  ev(EventKind::kLlStart, 0, 0),
                  ev(EventKind::kLlFast, 0, 0, 1),
                  ev(EventKind::kScAttempt, 0, 0, 0, 1),
                  ev(EventKind::kHelpInstall, 0, 0, 5, 1),  // consumed
                  ev(EventKind::kScCommit, 0, 0, 2),
                  ev(EventKind::kBankWrite, 0, 0, 2),
                  ev(EventKind::kScAttempt, 0, 0, 0, 0),
                  ev(EventKind::kHelpInstall, 0, 0, 6, 1),  // never consumed
                  ev(EventKind::kScFail, 0, 0),
                  ev(EventKind::kLlStart, 0, 0)};            // never closed
  d.per_pid[1] = {ev(EventKind::kLlStart, 1, 0, 5),
                  ev(EventKind::kLlFallback, 1, 0, 5),
                  ev(EventKind::kLlRescue, 1, 0, 5)};

  const std::string path = "test_obs_view.json";
  CHECK(obs::write_chrome_trace(path, d));
  const std::string text = read_file(path);
  std::remove(path.c_str());
  CHECK_EQ(count_of(text, "\"ph\":\"X\""), 4u);  // 2 LL + 2 SC windows
  CHECK_EQ(count_of(text, "\"name\":\"SC(sc_fail)\""), 1u);
  CHECK_EQ(count_of(text, "\"ph\":\"s\""), 1u);  // one consumed donation
  CHECK_EQ(count_of(text, "\"ph\":\"f\""), 1u);
  CHECK_EQ(count_of(text, "\"ph\":\"i\",\"name\":\"ll_fast\""), 1u);
  CHECK_EQ(count_of(text, "\"ph\":\"i\",\"name\":\"ll_start\""), 1u);
  CHECK_EQ(count_of(text, "\"ph\":\"i\",\"name\":\"ll_fallback\""), 1u);
  CHECK_EQ(count_of(text, "\"ph\":\"i\",\"name\":\"help_install\""), 2u);
  CHECK(text.find("\"traceEvents\"") != std::string::npos);
  CHECK(text.find("\"mwllsc\": {") != std::string::npos);
  CHECK(text.find("\"dropped\": [3, 0]") != std::string::npos);
  CHECK(text.find("\"label\": \"jp w=2\"") != std::string::npos);
}

void truncation_tolerated() {
  obs::TraceConfig cfg;
  cfg.capacity = 64;  // force wraparound
  obs::TraceSink sink(1, cfg);
  core::MwLLSC<llsc::Dw128LLSC> obj(1, 3);
  obj.set_trace(&sink, 0);
  std::vector<std::uint64_t> buf(3);
  for (int i = 0; i < 1000; ++i) {
    obj.ll(0, buf.data());
    buf[0] += 1;
    CHECK(obj.sc(0, buf.data()));
  }
  const obs::TraceData d = sink.collect();
  CHECK(d.dropped[0] > 0);
  const auto r = obs::check_trace(d);
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK(r.truncated);

  check_reloads(d);  // the dropped count included
}

/// The checker must reject what it claims to reject: synthetic traces with
/// a jp LL retry, an I2 double-commit, a commit-less bank write, and
/// an over-budget apply.
void checker_catches_violations() {
  auto base = [] {
    obs::TraceData d;
    d.vars.push_back({0, 4, "jp w=4"});
    d.vars.push_back({1, 4, "retry w=4"});
    d.per_pid.resize(1);
    d.dropped.assign(1, 0);
    return d;
  };

  {  // an LL retry on a jp variable (a broken help guarantee)
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlFallback, 0, 0),
                    ev(obs::EventKind::kLlRetry, 0, 0),
                    ev(obs::EventKind::kLlFast, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
    CHECK(r.violations[0].find("LL retry on a jp variable") != std::string::npos);
  }
  {  // fallback + rescue, the implementation's worst case, is clean
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlFallback, 0, 0),
                    ev(obs::EventKind::kLlRescue, 0, 0)};
    CHECK(obs::check_trace(d).ok());
  }
  {  // the same retry on a retry-substrate variable is expected behavior
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 1),
                    ev(obs::EventKind::kLlRetry, 0, 1),
                    ev(obs::EventKind::kLlFast, 0, 1)};
    CHECK(obs::check_trace(d).ok());
  }
  {  // I2: two commits with no bank write between them
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kBankWrite, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
    CHECK(r.violations[0].find("I2") != std::string::npos);
  }
  {  // I2: a bank write with no open commit
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kBankWrite, 0, 0),
                    ev(obs::EventKind::kBankWrite, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
  }
  {  // a lock-style variable never emits bank writes: commits don't pair
    obs::TraceData d = base();
    d.vars[0].label = "lock w=4";
    d.per_pid[0] = {ev(obs::EventKind::kScCommit, 0, 0),
                    ev(obs::EventKind::kScCommit, 0, 0)};
    CHECK(obs::check_trace(d).ok());
  }
  {  // apps: an apply that took more than kMaxAttempts rounds
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kApplyCommit, 0, 0, 1, 4)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 1u);
    CHECK(r.violations[0].find("help-all") != std::string::npos);
  }
  {  // truncated rings excuse orphan closes, full rings don't
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlFast, 0, 0)};
    CHECK_EQ(obs::check_trace(d).violations.size(), 1u);
    d.dropped[0] = 5;
    CHECK(obs::check_trace(d).ok());
    CHECK(obs::check_trace(d).truncated);
  }
}

// Forces one jp LL through the worst case on a traced object: the first
// attempt is pushed past P (3 commits right after its link, N = 2, P = 2),
// and the announced round past P again (3 more right after its link), so
// it must be rescued. The trace must show the fallback and the rescue, and
// the LL must take exactly 3W+6 steps.
using HookedJp = core::MwLLSC<llsc::Dw128LLSC, core::HookEnv>;

struct ForceState {
  HookedJp* obj = nullptr;
  int stage = 0;
  std::uint32_t steps = 0;  // pid 0's steps
};

void force_rescue(void* ctx, const char* point, std::uint32_t pid) {
  auto* st = static_cast<ForceState*>(ctx);
  if (pid != 0) return;
  ++st->steps;
  const bool fast = std::strcmp(point, "ll:copy") == 0;
  const bool read = std::strcmp(point, "ll:recopy") == 0;
  if ((st->stage == 0 && fast) || (st->stage == 1 && read)) {
    ++st->stage;
    std::vector<std::uint64_t> v(3);
    for (int i = 0; i < 3; ++i) {
      st->obj->ll(1, v.data());
      v[0] += 1;
      CHECK(st->obj->sc(1, v.data()));
    }
  }
}

void fallback_rescue_traced() {
  constexpr std::uint32_t kW = 3;
  obs::TraceSink sink(2);
  HookedJp obj(2, kW);
  obj.set_trace(&sink, 0);
  ForceState st{&obj, 0};
  core::HookEnv::install(&force_rescue, &st);
  std::vector<std::uint64_t> v(kW);
  obj.ll(0, v.data());
  core::HookEnv::install(nullptr, nullptr);
  CHECK_EQ(st.stage, 2);
  CHECK_EQ(st.steps, Jp::ll_impl_bound(kW));
  CHECK_EQ(obj.stats().ll_used_helped_value, 1u);

  const obs::TraceData d = sink.collect();
  std::size_t fallbacks = 0, rescues = 0;
  for (const auto& e : d.per_pid[0]) {
    const auto k = static_cast<obs::EventKind>(e.kind);
    if (k == obs::EventKind::kLlFallback) ++fallbacks;
    if (k == obs::EventKind::kLlRescue) ++rescues;
  }
  CHECK_EQ(fallbacks, 1u);
  CHECK_EQ(rescues, 1u);
  const auto r = obs::check_trace(d);
  CHECK(r.ok());
  check_reloads(d);
}

/// k single-thread LL/SC pairs on every substrate: the i-th LL links
/// version i (its ll_fast tag) and the i-th SC installs version i+1 (its
/// sc_commit tag) — the tag witness the offline checker reads.
void tags_follow_versions() {
  constexpr std::uint64_t kPairs = 20;
  for (const auto& f : bench::all_factories()) {
    obs::TraceSink sink(1);
    auto obj = f.make(1, 3);
    obj->set_trace(&sink, 0);
    std::vector<std::uint64_t> v(3);
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      obj->ll(0, v.data());
      v[0] += 1;
      CHECK(obj->sc(0, v.data()));
    }
    const obs::TraceData d = sink.collect();
    std::vector<std::uint64_t> lls, commits;
    for (const auto& e : d.per_pid[0]) {
      if (e.kind == static_cast<std::uint16_t>(obs::EventKind::kLlFast)) {
        lls.push_back(e.tag);
      } else if (e.kind ==
                 static_cast<std::uint16_t>(obs::EventKind::kScCommit)) {
        commits.push_back(e.tag);
      }
    }
    if (lls.size() != kPairs || commits.size() != kPairs) {
      std::fprintf(stderr, "  %s: %zu ll_fast, %zu sc_commit\n",
                   f.name.c_str(), lls.size(), commits.size());
    }
    CHECK_EQ(lls.size(), kPairs);
    CHECK_EQ(commits.size(), kPairs);
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      if (lls[i] != i || commits[i] != i + 1) {
        std::fprintf(stderr, "  %s pair %llu: ll_fast %llu, sc_commit %llu\n",
                     f.name.c_str(), static_cast<unsigned long long>(i),
                     static_cast<unsigned long long>(lls[i]),
                     static_cast<unsigned long long>(commits[i]));
      }
      CHECK_EQ(lls[i], i);
      CHECK_EQ(commits[i], i + 1);
    }
  }
}

/// A dump cut off anywhere must fail to load, not replay as a shorter
/// clean trace.
void loader_rejects_truncation(const obs::TraceData& good) {
  const std::string path = "test_obs_cut.trace";
  obs::TraceData d;
  std::string err;
  CHECK(obs::write_trace(path, good));
  const std::string full = read_file(path);
  for (const double frac : {0.1, 0.5, 0.99}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    const auto cut =
        static_cast<std::size_t>(frac * static_cast<double>(full.size()));
    CHECK_EQ(std::fwrite(full.data(), 1, cut, f), cut);
    std::fclose(f);
    CHECK(!obs::load_trace(path, &d, &err));
    CHECK(err.find("truncated") != std::string::npos);
  }
  std::remove(path.c_str());
}

struct Counter {
  std::uint64_t v;
};
struct FetchInc {
  std::uint64_t operator()(Counter& c, const apps::OpDesc&) const {
    return c.v++;
  }
};

void apps_trace() {
  constexpr unsigned kThreads = 3;
  constexpr std::uint64_t kOps = 400;
  obs::TraceConfig cfg;
  cfg.capacity = 1u << 16;
  obs::TraceSink sink(kThreads, cfg);
  apps::WfUniversal<Counter, FetchInc> obj(kThreads, Counter{0});
  obj.set_trace(&sink, 0);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        obj.apply(t, apps::OpDesc{0, 0});
      }
    });
  }
  for (auto& th : pool) th.join();
  CHECK_EQ(obj.read(0).v, kThreads * kOps);

  const obs::TraceData d = sink.collect();
  const auto r = obs::check_trace(d);
  if (!r.ok()) {
    for (const auto& v : r.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(r.ok());
  CHECK_EQ(r.applies_checked, kThreads * kOps);
  CHECK(r.lls_checked > 0);  // substrate events share the rings

  check_reloads(d);
}

void metrics_registry() {
  obs::MetricsRegistry reg;
  CHECK(reg.empty());

  core::OpStatsSnapshot s;
  s.ll_ops = 100;
  s.sc_ops = 50;
  s.sc_success = 25;
  s.helps_given = 10;
  reg.absorb("impl=\"jp\",w=\"4\"", s);

  const auto& all = reg.metrics();
  const auto it = all.find("mwllsc_sc_success_ratio{impl=\"jp\",w=\"4\"}");
  CHECK(it != all.end());
  CHECK(it->second.type == obs::MetricsRegistry::Type::kGauge);
  CHECK(it->second.value == 0.5);
  CHECK(all.count("mwllsc_sc_ops_total{impl=\"jp\",w=\"4\"}") == 1);
  CHECK(all.at("mwllsc_helps_per_op{impl=\"jp\",w=\"4\"}").value == 0.1);
  CHECK(all.at("mwllsc_contention_estimate{impl=\"jp\",w=\"4\"}").value ==
        0.5);

  util::LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  reg.absorb_latency("impl=\"jp\"", h);

  // split_key round-trips labeled and bare names.
  {
    const auto [base, labels] = obs::MetricsRegistry::split_key(
        "mwllsc_sc_ops_total{impl=\"jp\"}");
    CHECK(base == "mwllsc_sc_ops_total");
    CHECK(labels == "impl=\"jp\"");
    const auto [b2, l2] = obs::MetricsRegistry::split_key("bare");
    CHECK(b2 == "bare");
    CHECK(l2.empty());
  }

  const std::string prom = "test_obs_metrics.prom";
  CHECK(obs::write_prometheus(prom, reg));

  const std::string ptext = read_file(prom);
  CHECK(ptext.find("# TYPE mwllsc_sc_success_ratio gauge") !=
        std::string::npos);
  CHECK(ptext.find("# TYPE mwllsc_sc_ops_total counter") !=
        std::string::npos);
  CHECK(ptext.find("mwllsc_sc_ops_total{impl=\"jp\",w=\"4\"} 50") !=
        std::string::npos);
  CHECK(ptext.find("# TYPE mwllsc_op_latency_ns summary") !=
        std::string::npos);
  CHECK(ptext.find("quantile=\"0.99\"") != std::string::npos);
  CHECK(ptext.find("mwllsc_op_latency_ns_count{impl=\"jp\"} 1000") !=
        std::string::npos);
  std::remove(prom.c_str());
}

void trace_derived_metrics(const obs::TraceData& d) {
  obs::MetricsRegistry reg;
  reg.absorb_trace(d);
  const auto& all = reg.metrics();
  CHECK(all.count("mwllsc_trace_events_total{kind=\"ll_start\"}") == 1);
  CHECK(all.count("mwllsc_trace_events_total{kind=\"sc_commit\"}") == 1);
  const auto it = all.find("mwllsc_traced_lls_total{var=\"0\",label=\"jp\"}");
  CHECK(it != all.end());
  CHECK(it->second.value > 0);
  CHECK(all.count("mwllsc_ll_mean_ns{var=\"0\",label=\"jp\"}") == 1);
  CHECK(all.count("mwllsc_traced_help_rate{var=\"0\",label=\"jp\"}") == 1);
}

}  // namespace

int main() {
  ring_wraparound();
  handle_binding();
  const obs::TraceData d = traced_protocol_mt();
  check_reloads(d);
  trace_derived_metrics(d);
  dump_keeps_stream_exact();
  chrome_view();
  truncation_tolerated();
  checker_catches_violations();
  fallback_rescue_traced();
  loader_rejects_truncation(d);
  apps_trace();
  tags_follow_versions();
  metrics_registry();
  std::printf("test_obs: OK\n");
  return 0;
}
