// obs/ layer tests, compiled WITH MWLLSC_TRACE (see tests/CMakeLists.txt;
// test_obs_off covers the compiled-out configuration):
//   * ring semantics — wraparound keeps the newest events, dropped counts
//     the evicted prefix, sampling records every 2^shift-th event;
//   * live tracing of the real protocol under threads, replayed through
//     check_trace: the 3W+6 / 4W+12 bounds and I2 re-verified from events
//     alone; a forced fallback + rescue costs exactly 3W+6 derived steps;
//   * exporter round-trip — write_chrome_trace -> load_chrome_trace must
//     hand the checker the same windows the live rings did;
//   * truncated and sampled traces pass (prefix loss is not a violation);
//   * the checker actually rejects bad traces (synthetic violations), and
//     the loader rejects truncated files;
//   * apps-layer events and the <= 3-round apply bound;
//   * MetricsRegistry absorption + Prometheus/JSON export.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/wf_universal.hpp"
#include "core/mwllsc.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_check.hpp"

using namespace mwllsc;

#if !defined(MWLLSC_TRACE)
#error "test_obs must be compiled with MWLLSC_TRACE (see tests/CMakeLists)"
#endif

namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  CHECK(f != nullptr);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
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
  ring.init(8, 0);
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

void ring_sampling() {
  obs::TraceRing ring;
  ring.init(64, 2);  // record every 4th event
  for (std::uint32_t i = 0; i < 40; ++i) {
    ring.record(obs::EventKind::kScAttempt, 1, 0, i, 0);
  }
  const auto snap = ring.snapshot();
  CHECK_EQ(snap.size(), 10u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    CHECK_EQ(snap[i].tag, 4 * i);
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
  CHECK(!r.sampled);
  CHECK(!r.truncated);
  CHECK_EQ(r.lls_checked, kThreads * kOps);
  CHECK(r.sc_commits > 0);
  CHECK_EQ(r.sc_commits, r.bank_writes);
  CHECK(r.max_ll_steps <= obs::ll_impl_bound(kW));
  CHECK(r.max_ll_steps >= kW + 3);  // every LL pays at least its first try

  // The counter snapshot and the trace must agree on the successful SCs.
  const auto s = obj.stats();
  CHECK_EQ(r.sc_commits, s.sc_success);
  CHECK_EQ(r.bank_writes, s.bank_writes);
  return d;
}

void export_roundtrip(const obs::TraceData& d) {
  const std::string path = "test_obs_trace.json";
  std::string err;
  CHECK(obs::write_chrome_trace(path, d, &err));

  obs::TraceData loaded;
  CHECK(obs::load_chrome_trace(path, &loaded, &err));
  CHECK_EQ(loaded.vars.size(), d.vars.size());
  CHECK_EQ(loaded.per_pid.size(), d.per_pid.size());
  CHECK_EQ(loaded.sample_shift, d.sample_shift);
  const obs::TraceData::VarInfo* info = loaded.var_info(0);
  CHECK(info != nullptr);
  CHECK_EQ(info->words, d.var_info(0)->words);
  CHECK(info->label == d.var_info(0)->label);

  // The file is a third correctness oracle: the checker must reach the
  // same verdict and the same window counts it reached on the live rings.
  const auto live = obs::check_trace(d);
  const auto file = obs::check_trace(loaded);
  if (!file.ok()) {
    for (const auto& v : file.violations)
      std::fprintf(stderr, "  %s\n", v.c_str());
  }
  CHECK(file.ok());
  CHECK_EQ(file.lls_checked, live.lls_checked);
  CHECK_EQ(file.sc_commits, live.sc_commits);
  CHECK_EQ(file.bank_writes, live.bank_writes);
  CHECK_EQ(file.max_ll_steps, live.max_ll_steps);

  const std::string text = slurp(path);
  CHECK(text.find("\"schema_version\"") != std::string::npos);
  CHECK(text.find("\"traceEvents\"") != std::string::npos);
  std::remove(path.c_str());
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

  // And the truncation survives the file round-trip.
  const std::string path = "test_obs_trunc.json";
  CHECK(obs::write_chrome_trace(path, d));
  obs::TraceData loaded;
  CHECK(obs::load_chrome_trace(path, &loaded));
  CHECK(loaded.dropped.size() == 1 && loaded.dropped[0] > 0);
  const auto r2 = obs::check_trace(loaded);
  CHECK(r2.ok());
  CHECK(r2.truncated);
  std::remove(path.c_str());
}

void sampled_trace_skips_checks() {
  obs::TraceConfig cfg;
  cfg.sample_shift = 3;
  obs::TraceSink sink(1, cfg);
  core::MwLLSC<llsc::Dw128LLSC> obj(1, 2);
  obj.set_trace(&sink, 0);
  std::vector<std::uint64_t> buf(2);
  for (int i = 0; i < 100; ++i) {
    obj.ll(0, buf.data());
    buf[0] += 1;
    obj.sc(0, buf.data());
  }
  const obs::TraceData d = sink.collect();
  CHECK(d.total_events() > 0);
  const auto r = obs::check_trace(d);
  CHECK(r.sampled);
  CHECK(r.ok());  // a sampled stream proves nothing, violates nothing
}

/// The checker must reject what it claims to reject: synthetic traces with
/// a defensive jp retry, an I2 double-commit, a commit-less bank write, and
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

  {  // defensive retry on a jp variable: the retry itself, and the
     // second announced round it costs pushes the LL past 3W+6
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlFallback, 0, 0),
                    ev(obs::EventKind::kLlRetry, 0, 0),
                    ev(obs::EventKind::kLlFast, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK_EQ(r.violations.size(), 2u);
    CHECK(r.violations[0].find("defensive LL retry") != std::string::npos);
    CHECK(r.violations[1].find("> 3W+6") != std::string::npos);
  }
  {  // fallback + rescue is the implementation's worst case: exactly 3W+6
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlFallback, 0, 0),
                    ev(obs::EventKind::kLlRescue, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
    CHECK_EQ(r.max_ll_steps, obs::ll_impl_bound(4));
  }
  {  // a rescue with no fallback marker (a trace from before the markers)
     // is read conservatively as one announced round, not W+3
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 0),
                    ev(obs::EventKind::kLlRescue, 0, 0)};
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
    CHECK_EQ(r.max_ll_steps, obs::ll_impl_bound(4));
  }
  {  // the same retry on a retry-substrate variable is expected behavior
    obs::TraceData d = base();
    d.per_pid[0] = {ev(obs::EventKind::kLlStart, 0, 1),
                    ev(obs::EventKind::kLlRetry, 0, 1),
                    ev(obs::EventKind::kLlFast, 0, 1)};
    CHECK(obs::check_trace(d).ok());
  }
  {  // enough retries push a non-jp LL past 4W+12 — still no violation,
     // but a jp LL with the same shape would trip the bound; craft it via
     // a jp label and many retries... which already trips the retry rule,
     // so instead check the derived step accounting directly.
    CHECK_EQ(obs::ll_steps_of(4, 0, false), 7u);    // first try: W+3
    CHECK_EQ(obs::ll_steps_of(4, 1, false), 14u);   // W+2 then W+4
    CHECK_EQ(obs::ll_steps_of(4, 1, true), 18u);    // rescue adds W
    CHECK_EQ(obs::ll_impl_bound(4), 18u);
    CHECK_EQ(obs::ll_paper_bound(4), 28u);
    CHECK(obs::ll_steps_of(4, 2, false) > obs::ll_impl_bound(4));
    CHECK(obs::ll_steps_of(4, 3, false) > obs::ll_paper_bound(4));
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
// it must be rescued. The trace must show the fallback and cost exactly
// 3W+6.
using HookedJp = core::MwLLSC<llsc::Dw128LLSC, core::HookEnv>;

struct ForceState {
  HookedJp* obj = nullptr;
  int stage = 0;
};

void force_rescue(void* ctx, const char* point, std::uint32_t pid) {
  auto* st = static_cast<ForceState*>(ctx);
  if (pid != 0) return;
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
  CHECK_EQ(obj.stats().ll_used_helped_value, 1u);

  const obs::TraceData d = sink.collect();
  std::size_t fallbacks = 0;
  for (const auto& e : d.per_pid[0]) {
    if (e.kind == static_cast<std::uint16_t>(obs::EventKind::kLlFallback)) {
      ++fallbacks;
    }
  }
  CHECK_EQ(fallbacks, 1u);
  const auto r = obs::check_trace(d);
  CHECK(r.ok());
  CHECK_EQ(r.max_ll_steps, obs::ll_impl_bound(kW));

  // The fallback marker survives the file round-trip (folded into the
  // exported LL window), so the file yields the same derived steps.
  const std::string path = "test_obs_fallback.json";
  CHECK(obs::write_chrome_trace(path, d));
  obs::TraceData loaded;
  CHECK(obs::load_chrome_trace(path, &loaded));
  const auto r2 = obs::check_trace(loaded);
  CHECK(r2.ok());
  CHECK(!r2.vacuous());
  CHECK_EQ(r2.lls_checked, r.lls_checked);
  CHECK_EQ(r2.max_ll_steps, r.max_ll_steps);
  std::remove(path.c_str());
}

/// An export cut off anywhere before its trailer must fail to load, not
/// replay as a shorter clean trace (trace_check's fixtures cover empty,
/// random-byte, LL-less and sampled input through the tool itself).
void loader_rejects_truncation(const obs::TraceData& good) {
  const std::string path = "test_obs_cut.json";
  obs::TraceData d;
  std::string err;
  CHECK(obs::write_chrome_trace(path, good));
  const std::string full = slurp(path);
  for (const double frac : {0.1, 0.5, 0.99}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    const auto cut =
        static_cast<std::size_t>(frac * static_cast<double>(full.size()));
    CHECK_EQ(std::fwrite(full.data(), 1, cut, f), cut);
    std::fclose(f);
    CHECK(!obs::load_chrome_trace(path, &d, &err));
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

  // Round-trip the apps trace too (announce/help_all/apply_commit are
  // instants; the loader must restore them for applies_checked to match).
  const std::string path = "test_obs_apps.json";
  CHECK(obs::write_chrome_trace(path, d));
  obs::TraceData loaded;
  CHECK(obs::load_chrome_trace(path, &loaded));
  const auto r2 = obs::check_trace(loaded);
  CHECK(r2.ok());
  CHECK_EQ(r2.applies_checked, r.applies_checked);
  std::remove(path.c_str());
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
  const std::string json = "test_obs_metrics.json";
  CHECK(obs::write_prometheus(prom, reg));
  CHECK(obs::write_metrics_json(json, reg));

  const std::string ptext = slurp(prom);
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

  const std::string jtext = slurp(json);
  CHECK(jtext.find("\"schema_version\"") != std::string::npos);
  CHECK(jtext.find("mwllsc_sc_success_ratio") != std::string::npos);
  CHECK(jtext.find("\"p99\"") != std::string::npos);
  std::remove(prom.c_str());
  std::remove(json.c_str());
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
  ring_sampling();
  handle_binding();
  const obs::TraceData d = traced_protocol_mt();
  export_roundtrip(d);
  trace_derived_metrics(d);
  truncation_tolerated();
  sampled_trace_skips_checks();
  checker_catches_violations();
  fallback_rescue_traced();
  loader_rejects_truncation(d);
  apps_trace();
  metrics_registry();
  std::printf("test_obs: OK\n");
  return 0;
}
