// Offline trace checker: loads trace dumps (write_trace, as written by any
// bench's --trace PATH) and re-verifies the protocol's observable
// guarantees from events alone — the LL step bounds (the paper's 4W+12 and
// the implementation's 3W+6) and zero LL retries for jp-labelled
// variables, exactly one bank write per successful SC (invariant I2), the
// <= 3-round bound of the apps-layer help-all construction, and the
// membership lifecycle discipline (pid leases never overlap, nobody
// retires mid-LL, retired/reclaimed pids stay silent until rejoined). A
// dump reloads bit-identical, so the same rules see the same per-pid
// streams on live rings (tests/test_obs) and on a file from elsewhere.
//
// A verdict cannot pass by accident: a file that is not one whole dump of
// this format version fails to load, and a trace with no completed LL
// window fails as vacuous. The PATH.json Perfetto view is never read.
//
// Usage: trace_check FILE...
// Exit:  0 if every file loads, checks clean and is not vacuous; 1 otherwise.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "obs/export.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE...\n", argv[0]);
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    mwllsc::obs::TraceData d;
    std::string err;
    if (!mwllsc::obs::load_trace(path, &d, &err)) {
      std::fprintf(stderr, "%s: load failed: %s\n", path.c_str(),
                   err.c_str());
      all_ok = false;
      continue;
    }
    const auto r = mwllsc::obs::check_trace(d);
    std::printf("%s: %" PRIu64 " events, %zu procs, %zu vars\n",
                path.c_str(), d.total_events(), d.per_pid.size(),
                d.vars.size());
    std::printf("  LLs checked:   %" PRIu64
                "  (worst derived steps on jp vars: %" PRIu64 ")\n",
                r.lls_checked, r.max_ll_steps);
    std::printf("  SC commits:    %" PRIu64 "   bank writes: %" PRIu64
                "   applies: %" PRIu64 "%s\n",
                r.sc_commits, r.bank_writes, r.applies_checked,
                r.truncated ? "   [ring-truncated prefix tolerated]" : "");
    if (r.joins + r.retires + r.crash_reclaims > 0) {
      std::printf("  lifecycle:     %" PRIu64 " joins   %" PRIu64
                  " retires   %" PRIu64 " crash reclaims\n",
                  r.joins, r.retires, r.crash_reclaims);
    }
    for (const auto& v : d.vars) {
      std::printf("    var %u: W=%u \"%s\"\n", v.id, v.words,
                  v.label.c_str());
    }
    if (!r.ok()) {
      all_ok = false;
      std::printf("  %zu VIOLATIONS:\n", r.violations.size());
      for (const auto& v : r.violations) {
        std::printf("    %s\n", v.c_str());
      }
    } else if (r.vacuous()) {
      all_ok = false;
      std::printf("  VACUOUS: no completed LL window to check\n");
    } else {
      std::printf("  OK: 3W+6, 4W+12 and I2 hold over the recorded events\n");
    }
  }
  return all_ok ? 0 : 1;
}
