// The compiled-out configuration of obs/ (no MWLLSC_TRACE): the
// TraceHandle the protocol objects embed must be an empty struct — zero
// per-object state, every emit a no-op the optimizer deletes — while the
// cold half of the layer (sink, rings, checker, exporters, metrics) still
// compiles and runs, so tools like trace_check build in every
// configuration. tests/CMakeLists.txt compiles this file without the
// define even when the rest of the build has tracing on.
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "core/mwllsc.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_check.hpp"

using namespace mwllsc;

#if !defined(MWLLSC_TRACE)
// The zero-overhead claim, enforced at compile time: no sink pointer, no
// var id, nothing. (trace.hpp also static_asserts this; asserting here too
// keeps the test meaningful if that ever moves.)
static_assert(std::is_empty_v<obs::TraceHandle>,
              "trace-off builds must carry no per-object trace state");
#endif

int main() {
  // The handle API is callable either way; compiled out it does nothing.
  {
    obs::TraceSink sink(1);
    obs::TraceHandle h;
    h.bind(&sink, 0);
    h.emit(obs::EventKind::kLlStart, 0, 1, 2);
#if !defined(MWLLSC_TRACE)
    CHECK(!h.bound());
    CHECK_EQ(sink.collect().total_events(), 0u);
#endif
  }

  // The instrumented protocol runs unchanged with tracing compiled out —
  // set_trace is accepted and ignored.
  {
    obs::TraceSink sink(1);
    core::MwLLSC<llsc::Dw128LLSC> obj(1, 4);
    obj.set_trace(&sink, 0);
    std::vector<std::uint64_t> buf(4);
    for (int i = 0; i < 100; ++i) {
      obj.ll(0, buf.data());
      buf[0] += 1;
      CHECK(obj.sc(0, buf.data()));
    }
    CHECK_EQ(buf[0], 100u);
#if !defined(MWLLSC_TRACE)
    CHECK_EQ(sink.collect().total_events(), 0u);
#endif
  }

  // The cold half is always available: rings, checker, exporters.
  {
    obs::TraceRing ring;
    ring.init(8);
    ring.record(obs::EventKind::kScCommit, 0, 0, 1, 0);
    CHECK_EQ(ring.recorded(), 1u);

    obs::TraceData d;
    const auto r = obs::check_trace(d);
    CHECK(r.ok());
    CHECK_EQ(r.lls_checked, 0u);

    obs::MetricsRegistry reg;
    reg.set_counter("x_total", 3);
    const std::string path = "test_obs_off_metrics.prom";
    CHECK(obs::write_prometheus(path, reg));
    std::remove(path.c_str());
  }

  std::printf("test_obs_off: OK\n");
  return 0;
}
