// Exporters and the offline trace checker (DESIGN.md §8).
//
// * write_chrome_trace — Chrome-trace / Perfetto JSON of a collected
//   TraceData: one track per process id, LL and SC rendered as complete
//   ("X") duration events with their inner detail in args, the remaining
//   protocol events as instants, and flow events linking every
//   help_install to the ll_helped / ll_rescue that consumed the donated
//   buffer on the helpee's track. One traceEvents entry per line, so the
//   loader below can parse it without a JSON library.
//
// * load_chrome_trace — reads that exporter's output back into a
//   TraceData (X events are expanded to their start/retry/end markers in
//   place), making an exported file a third correctness oracle: the same
//   checker runs on live rings and on a file from another machine.
//
// * check_trace — replays per-pid event streams and re-verifies, from
//   events alone: the LL step bounds — the paper's 4W+12 and the
//   implementation's 3W+6 — and zero defensive retries for every
//   variable labelled as the paper's protocol ("jp…"), exactly one
//   bank write per successful SC (invariant I2) for every variable that
//   emits bank writes, and the <= 3 LL/SC rounds bound of the apps-layer
//   help-all construction. Membership lifecycle events are cross-checked
//   too: pid leases must not overlap (join while live), retire must not
//   leave an LL window open, and a retired/reclaimed pid must not emit
//   protocol events until its next join — traces from before the
//   lifecycle layer carry no such events and are checked exactly as
//   before. Ring truncation is tolerated as a missing *prefix* (orphan
//   closes/bank-writes are skipped while dropped > 0); sampled traces
//   skip sequencing checks entirely. A result that replayed no LL window
//   (or a sampled one) is vacuous and proves nothing.
//
// * write_prometheus / write_metrics_json — text + JSON export of a
//   MetricsRegistry.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mwllsc::obs {

/// 3: LL windows open at LL entry (before any announce) and a jp LL that
/// falls back to the announced protocol carries an ll_fallback event
/// (the "fallback" arg of an exported LL window).
inline constexpr std::uint32_t kTraceSchemaVersion = 3;

// ------------------------------------------------------------------ checker

struct TraceCheckResult {
  std::uint64_t lls_checked = 0;    ///< completed LL windows replayed
  std::uint64_t max_ll_steps = 0;   ///< worst derived step count (jp vars)
  std::uint64_t sc_commits = 0;
  std::uint64_t bank_writes = 0;
  std::uint64_t applies_checked = 0;
  std::uint64_t joins = 0;          ///< proc_join events (membership layer)
  std::uint64_t retires = 0;
  std::uint64_t crash_reclaims = 0;
  bool sampled = false;             ///< sequencing checks skipped
  bool truncated = false;           ///< some ring evicted its prefix
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// Nothing was verified: a sampled trace, or no completed LL window.
  bool vacuous() const { return sampled || lls_checked == 0; }
};

/// Derived step count for one completed jp LL, from the observed events.
/// `rounds` counts announced rounds (0: the announce-free first attempt
/// was accepted). An accepted first attempt costs link/copy/re-check plus
/// the read of its own announce word = W+3; one that fell back costs W+2,
/// then each announced round announce/link/copy/validate/announce-check
/// = W+4, and a rescue adds the W-word donated copy.
inline std::uint64_t ll_steps_of(std::uint32_t w, std::uint32_t rounds,
                                 bool rescued) {
  if (rounds == 0) return w + 3;
  return (w + 2) + static_cast<std::uint64_t>(rounds) * (w + 4) +
         (rescued ? w : 0);
}

/// The paper's LL step bound (Theorem 1) and the implementation's
/// (core/mwllsc.hpp: a fallen-back first attempt plus one rescued round).
inline std::uint64_t ll_paper_bound(std::uint32_t w) { return 4ull * w + 12; }
inline std::uint64_t ll_impl_bound(std::uint32_t w) { return 3ull * w + 6; }

inline TraceCheckResult check_trace(const TraceData& d) {
  TraceCheckResult r;
  if (d.sample_shift > 0) {
    // Sampling drops arbitrary events; sequencing proofs are meaningless.
    r.sampled = true;
    return r;
  }

  // Pre-scan: which vars ever emit bank writes? Substrates without a
  // retirement write (lock) are exempt from the I2 pairing check.
  std::map<std::uint32_t, bool> var_has_bank;
  for (const auto& stream : d.per_pid) {
    for (const TraceEvent& e : stream) {
      if (static_cast<EventKind>(e.kind) == EventKind::kBankWrite) {
        var_has_bank[e.var] = true;
      }
    }
  }

  char msg[256];
  for (std::size_t pid = 0; pid < d.per_pid.size(); ++pid) {
    const bool trunc = pid < d.dropped.size() && d.dropped[pid] > 0;
    if (trunc) r.truncated = true;

    struct VarState {
      bool in_ll = false;
      bool fell_back = false;  ///< ll_fallback seen in the open window
      std::uint32_t retries = 0;
      bool commit_open = false;  ///< sc_commit seen, bank_write pending
      bool any_commit = false;
    };
    std::map<std::uint32_t, VarState> vs;

    // Membership lifecycle (traces without lifecycle events stay in
    // kUnknown forever and get no lifecycle checks — full backward
    // compatibility). Degraded join/retire pairs (arg = 1) share one
    // reserved pid across overlapping sessions, so they are counted but
    // never drive the liveness state machine.
    enum class Live { kUnknown, kLive, kDead };
    Live live = Live::kUnknown;
    bool dead_use_reported = false;

    for (const TraceEvent& e : d.per_pid[pid]) {
      const auto k = static_cast<EventKind>(e.kind);

      if (k == EventKind::kProcJoin) {
        ++r.joins;
        if (e.arg != 1) {  // wait-free slot claim (degraded joins overlap)
          if (live == Live::kLive) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu: proc_join while the pid is already "
                          "live (no retire/reclaim between leases)",
                          pid);
            r.violations.push_back(msg);
          }
          live = Live::kLive;
        }
        // A new incarnation inherits a quiescent pid: drop half-open
        // windows left by the previous holder.
        vs.clear();
        dead_use_reported = false;
        continue;
      }
      if (k == EventKind::kProcRetire) {
        ++r.retires;
        if (e.arg != 1) {
          if (live == Live::kDead) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu: proc_retire of a pid that is not live",
                          pid);
            r.violations.push_back(msg);
          }
          if (!trunc) {
            for (const auto& [var, v2] : vs) {
              if (v2.in_ll) {
                std::snprintf(msg, sizeof(msg),
                              "pid %zu var %u: retired with an open LL "
                              "window",
                              pid, var);
                r.violations.push_back(msg);
              }
            }
          }
          live = Live::kDead;
        }
        vs.clear();
        continue;
      }
      if (k == EventKind::kProcCrashReclaim) {
        // Emitted by the reclaimer into the dead pid's stream (the slot
        // word hand-off keeps the stream single-writer). The reclaimer
        // settled every help obligation, so the pid starts over clean.
        ++r.crash_reclaims;
        live = Live::kDead;
        vs.clear();
        continue;
      }
      if (live == Live::kDead && !dead_use_reported) {
        std::snprintf(msg, sizeof(msg),
                      "pid %zu var %u: %s after retire/reclaim without a "
                      "proc_join",
                      pid, e.var, event_name(k));
        r.violations.push_back(msg);
        dead_use_reported = true;  // one report per gap, not per event
      }

      VarState& v = vs[e.var];
      const TraceData::VarInfo* info = d.var_info(e.var);
      const std::uint32_t w = info ? info->words : 0;
      const bool jp = info && info->label.rfind("jp", 0) == 0;

      switch (k) {
        case EventKind::kLlStart:
          if (v.in_ll) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: ll_start inside an open LL",
                          pid, e.var);
            r.violations.push_back(msg);
          }
          v.in_ll = true;
          v.fell_back = false;
          v.retries = 0;
          break;
        case EventKind::kLlFallback:
          if (v.in_ll) v.fell_back = true;
          break;
        case EventKind::kLlRetry:
          if (v.in_ll) {
            ++v.retries;
            if (jp) {
              std::snprintf(msg, sizeof(msg),
                            "pid %zu var %u: defensive LL retry on a jp "
                            "variable (help guarantee broken)",
                            pid, e.var);
              r.violations.push_back(msg);
            }
          }
          break;
        case EventKind::kLlFast:
        case EventKind::kLlRescue: {
          if (!v.in_ll) {
            if (!trunc) {
              std::snprintf(msg, sizeof(msg),
                            "pid %zu var %u: %s without ll_start", pid,
                            e.var, event_name(k));
              r.violations.push_back(msg);
            }
            break;  // orphan close from an evicted prefix
          }
          v.in_ll = false;
          ++r.lls_checked;
          const bool rescued = k == EventKind::kLlRescue;
          // A rescue or retry implies an announced round even in a trace
          // that predates ll_fallback markers (the conservative reading).
          const std::uint32_t rounds =
              (v.fell_back || rescued || v.retries > 0) ? v.retries + 1 : 0;
          const std::uint64_t steps = ll_steps_of(w, rounds, rescued);
          if (jp) {
            if (steps > r.max_ll_steps) r.max_ll_steps = steps;
            const bool over_paper = steps > ll_paper_bound(w);
            if (over_paper || steps > ll_impl_bound(w)) {
              std::snprintf(msg, sizeof(msg),
                            "pid %zu var %u: LL took %" PRIu64
                            " derived steps > %s = %" PRIu64
                            " (W=%u, rounds=%u, retries=%u)",
                            pid, e.var, steps, over_paper ? "4W+12" : "3W+6",
                            over_paper ? ll_paper_bound(w) : ll_impl_bound(w),
                            w, rounds, v.retries);
              r.violations.push_back(msg);
            }
          }
          break;
        }
        case EventKind::kScCommit:
          if (v.commit_open && var_has_bank[e.var]) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: sc_commit with no bank_write "
                          "since the previous commit (I2)",
                          pid, e.var);
            r.violations.push_back(msg);
          }
          v.commit_open = true;
          v.any_commit = true;
          ++r.sc_commits;
          break;
        case EventKind::kBankWrite:
          if (v.commit_open) {
            v.commit_open = false;
          } else if (v.any_commit || !trunc) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: bank_write without a preceding "
                          "sc_commit (I2)",
                          pid, e.var);
            r.violations.push_back(msg);
          }
          ++r.bank_writes;
          break;
        case EventKind::kApplyCommit:
          ++r.applies_checked;
          if (e.arg > 3) {
            std::snprintf(msg, sizeof(msg),
                          "pid %zu var %u: apply took %u LL/SC rounds > 3 "
                          "(help-all bound)",
                          pid, e.var, e.arg);
            r.violations.push_back(msg);
          }
          break;
        default:
          break;  // instants that carry no protocol obligation
      }
    }
  }
  return r;
}

// ------------------------------------------------------ chrome-trace write

namespace detail {

/// Key for matching a donation to its consumption: (var, helpee pid, seq).
inline std::uint64_t flow_id(std::uint32_t var, std::uint32_t pid,
                             std::uint64_t seq) {
  return (seq & ((std::uint64_t{1} << 40) - 1)) << 24 |
         (static_cast<std::uint64_t>(var & 0x3ff) << 14) | (pid & 0x3fff);
}

inline double us_of(const TraceData& d, std::uint64_t tsc) {
  return d.ns_of(tsc) / 1000.0;
}

}  // namespace detail

/// Writes the collected trace as Chrome-trace JSON (open in Perfetto /
/// chrome://tracing). Returns false and fills *err on I/O failure.
inline bool write_chrome_trace(const std::string& path, const TraceData& d,
                               std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::fprintf(f, "{\n\"traceEvents\": [\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };

  // Track names.
  for (std::size_t pid = 0; pid < d.per_pid.size(); ++pid) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
                 "\"tid\":%zu,\"args\":{\"name\":\"process %zu\"}}",
                 pid, pid);
  }

  // First pass: where does each donation land? (flow targets)
  std::map<std::uint64_t, std::uint64_t> consume_tsc;  // flow id -> tsc
  for (const auto& stream : d.per_pid) {
    for (const TraceEvent& e : stream) {
      const auto k = static_cast<EventKind>(e.kind);
      if (k == EventKind::kLlHelped || k == EventKind::kLlRescue) {
        consume_tsc[detail::flow_id(e.var, e.pid, e.tag)] = e.tsc;
      }
    }
  }

  for (std::size_t pid = 0; pid < d.per_pid.size(); ++pid) {
    const auto& stream = d.per_pid[pid];
    // Retry and fallback markers folded into an LL window's args; they are
    // not written again as instants (the loader re-expands them).
    std::vector<bool> folded(stream.size(), false);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const TraceEvent& e = stream[i];
      const auto k = static_cast<EventKind>(e.kind);
      if (folded[i]) continue;

      // LL / SC windows become "X" complete events; their close marker is
      // consumed here, other inner instants fall through to the instant
      // case on later iterations (they sit inside the duration visually).
      if (k == EventKind::kLlStart || k == EventKind::kScAttempt) {
        const bool is_ll = k == EventKind::kLlStart;
        std::uint32_t retries = 0;
        bool fallback = false;
        std::vector<std::size_t> inner;
        std::size_t close = stream.size();
        for (std::size_t j = i + 1; j < stream.size(); ++j) {
          const auto kj = static_cast<EventKind>(stream[j].kind);
          if (stream[j].var != e.var) continue;
          if (is_ll && kj == EventKind::kLlRetry) {
            ++retries;
            inner.push_back(j);
          }
          if (is_ll && kj == EventKind::kLlFallback) {
            fallback = true;
            inner.push_back(j);
          }
          if ((is_ll && (kj == EventKind::kLlFast ||
                         kj == EventKind::kLlRescue)) ||
              (!is_ll && (kj == EventKind::kScCommit ||
                          kj == EventKind::kScFail))) {
            close = j;
            break;
          }
          if ((is_ll && kj == EventKind::kLlStart) ||
              (!is_ll && kj == EventKind::kScAttempt)) {
            break;  // window never closed (shouldn't happen)
          }
        }
        if (close < stream.size()) {
          for (std::size_t j : inner) folded[j] = true;
          const TraceEvent& c = stream[close];
          const auto ck = static_cast<EventKind>(c.kind);
          const double ts = detail::us_of(d, e.tsc);
          const double dur = detail::us_of(d, c.tsc) - ts;
          sep();
          std::fprintf(
              f,
              "{\"ph\":\"X\",\"name\":\"%s(%s)\",\"cat\":\"mwllsc\","
              "\"pid\":0,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
              "\"args\":{\"k\":\"%s\",\"end\":\"%s\",\"retries\":%u,"
              "\"fallback\":%u,\"var\":%u,\"tag\":%" PRIu64
              ",\"arg\":%u}}",
              is_ll ? "LL" : "SC",
              ck == EventKind::kLlFast     ? "fast"
              : ck == EventKind::kLlRescue ? "helped"
              : ck == EventKind::kScCommit ? "commit"
                                           : "fail",
              pid, ts, dur < 0 ? 0.0 : dur, is_ll ? "ll" : "sc",
              event_name(ck), retries, fallback ? 1u : 0u, e.var, c.tag,
              c.arg);
          continue;  // the close marker is skipped below
        }
        // Unclosed window (end of ring): fall through as an instant.
      }
      if ((k == EventKind::kLlFast || k == EventKind::kLlRescue ||
           k == EventKind::kScCommit || k == EventKind::kScFail)) {
        // Close markers are folded into their X event; one that reaches
        // here is an orphan from an evicted prefix — keep it as an
        // instant so the loader round-trips it.
        bool orphan = true;
        for (std::size_t j = i; j-- > 0;) {
          const auto kj = static_cast<EventKind>(stream[j].kind);
          if (stream[j].var != e.var) continue;
          if (kj == EventKind::kLlStart || kj == EventKind::kScAttempt) {
            // A window opener earlier in the stream claimed this close iff
            // no other close sits between them; the X scan above is
            // exactly that, so mirror it cheaply: the opener scan stopped
            // at the *first* close. Being the first close after an opener
            // of the right kind means not orphan.
            const bool opener_is_ll = kj == EventKind::kLlStart;
            const bool close_is_ll = k == EventKind::kLlFast ||
                                     k == EventKind::kLlRescue;
            if (opener_is_ll == close_is_ll) orphan = false;
            break;
          }
          if (kj == EventKind::kLlFast || kj == EventKind::kLlRescue ||
              kj == EventKind::kScCommit || kj == EventKind::kScFail) {
            break;  // another close intervenes: we're orphaned
          }
        }
        if (!orphan) continue;
      }

      // Instant event.
      sep();
      std::fprintf(f,
                   "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"mwllsc\","
                   "\"s\":\"t\",\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                   "\"args\":{\"k\":\"%s\",\"var\":%u,\"tag\":%" PRIu64
                   ",\"arg\":%u}}",
                   event_name(k), pid, detail::us_of(d, e.tsc),
                   event_name(k), e.var, e.tag, e.arg);

      // A donation grows a flow arrow to the helpee's track.
      if (k == EventKind::kHelpInstall) {
        const std::uint64_t id = detail::flow_id(e.var, e.arg, e.tag);
        auto it = consume_tsc.find(id);
        if (it != consume_tsc.end()) {
          sep();
          std::fprintf(f,
                       "{\"ph\":\"s\",\"name\":\"donation\",\"cat\":\"help\","
                       "\"id\":%" PRIu64
                       ",\"pid\":0,\"tid\":%zu,\"ts\":%.3f}",
                       id, pid, detail::us_of(d, e.tsc));
          sep();
          std::fprintf(f,
                       "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"donation\","
                       "\"cat\":\"help\",\"id\":%" PRIu64
                       ",\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
                       id, e.arg, detail::us_of(d, it->second));
        }
      }
    }
  }

  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ms\",\n\"mwllsc\": {\n");
  std::fprintf(f, "  \"schema_version\": %u,\n", kTraceSchemaVersion);
  std::fprintf(f, "  \"sample_shift\": %u,\n", d.sample_shift);
  std::fprintf(f, "  \"dropped\": [");
  for (std::size_t p = 0; p < d.dropped.size(); ++p) {
    std::fprintf(f, "%s%" PRIu64, p ? ", " : "", d.dropped[p]);
  }
  std::fprintf(f, "],\n  \"vars\": [\n");
  for (std::size_t i = 0; i < d.vars.size(); ++i) {
    std::fprintf(f,
                 "    {\"id\": %u, \"words\": %u, \"label\": \"%s\"}%s\n",
                 d.vars[i].id, d.vars[i].words, d.vars[i].label.c_str(),
                 i + 1 < d.vars.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n}\n");
  std::fclose(f);
  return true;
}

// ------------------------------------------------------- chrome-trace load

namespace detail {

inline bool find_u64(const std::string& s, const char* key,
                     std::uint64_t* out) {
  const auto pos = s.find(key);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(s.c_str() + pos + std::strlen(key), nullptr, 10);
  return true;
}

inline bool find_str(const std::string& s, const char* key,
                     std::string* out) {
  const auto pos = s.find(key);
  if (pos == std::string::npos) return false;
  const auto start = pos + std::strlen(key);
  const auto end = s.find('"', start);
  if (end == std::string::npos) return false;
  *out = s.substr(start, end - start);
  return true;
}

}  // namespace detail

/// Parses write_chrome_trace output (one traceEvents entry per line) back
/// into a TraceData; "X" windows are expanded to their start/fallback/
/// retry/close markers in place, so check_trace sees the same per-pid
/// streams it would on live rings. Timestamps come back in nanoseconds
/// (ns_per_tick = 1). Fails (false, *err set) on input that is not a
/// complete export: empty, foreign bytes, or cut off before the trailing
/// metadata block the writer emits last.
inline bool load_chrome_trace(const std::string& path, TraceData* out,
                              std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  *out = TraceData{};
  out->ns_per_tick = 1.0;

  auto kind_of = [](const std::string& name) -> int {
    for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kCount);
         ++k) {
      if (name == event_name(static_cast<EventKind>(k))) {
        return static_cast<int>(k);
      }
    }
    return -1;
  };

  char buf[2048];
  bool in_vars = false;
  bool saw_header = false, saw_schema = false, saw_vars_end = false;
  while (std::fgets(buf, sizeof(buf), f)) {
    std::string line(buf);

    if (line.rfind("\"traceEvents\": [", 0) == 0) saw_header = true;
    if (line.find("\"vars\"") != std::string::npos) in_vars = true;
    if (in_vars && line.rfind("  ]", 0) == 0) {
      in_vars = false;
      saw_vars_end = true;
      continue;
    }
    if (in_vars && line.find("\"id\"") != std::string::npos) {
      TraceData::VarInfo v;
      std::uint64_t u = 0;
      if (detail::find_u64(line, "\"id\": ", &u)) {
        v.id = static_cast<std::uint32_t>(u);
      }
      if (detail::find_u64(line, "\"words\": ", &u)) {
        v.words = static_cast<std::uint32_t>(u);
      }
      detail::find_str(line, "\"label\": \"", &v.label);
      out->vars.push_back(std::move(v));
      continue;
    }
    std::uint64_t u = 0;
    if (detail::find_u64(line, "\"schema_version\": ", &u)) {
      saw_schema = true;
      continue;
    }
    if (detail::find_u64(line, "\"sample_shift\": ", &u)) {
      out->sample_shift = static_cast<std::uint32_t>(u);
      continue;
    }
    if (line.find("\"dropped\": [") != std::string::npos) {
      const char* p = std::strchr(line.c_str(), '[') + 1;
      while (*p && *p != ']') {
        char* next = nullptr;
        out->dropped.push_back(std::strtoull(p, &next, 10));
        if (next == p) break;
        p = next;
        while (*p == ',' || *p == ' ') ++p;
      }
      continue;
    }

    std::string ph;
    if (!detail::find_str(line, "\"ph\":\"", &ph)) continue;
    if (ph != "X" && ph != "i") continue;  // flows/metadata carry no state

    std::uint64_t tid = 0, var = 0, tag = 0, arg = 0;
    detail::find_u64(line, "\"tid\":", &tid);
    detail::find_u64(line, "\"var\":", &var);
    detail::find_u64(line, "\"tag\":", &tag);
    detail::find_u64(line, "\"arg\":", &arg);
    const auto ts_pos = line.find("\"ts\":");
    const double ts_us =
        ts_pos == std::string::npos
            ? 0.0
            : std::strtod(line.c_str() + ts_pos + 5, nullptr);

    if (out->per_pid.size() <= tid) out->per_pid.resize(tid + 1);
    auto& stream = out->per_pid[tid];
    auto push = [&](EventKind k, double at_us) {
      TraceEvent e;
      e.tsc = static_cast<std::uint64_t>(at_us * 1000.0);
      e.tag = tag;
      e.var = static_cast<std::uint32_t>(var);
      e.arg = static_cast<std::uint32_t>(arg);
      e.kind = static_cast<std::uint16_t>(k);
      e.pid = static_cast<std::uint16_t>(tid);
      stream.push_back(e);
    };

    if (ph == "X") {
      std::string end;
      std::uint64_t retries = 0, fallback = 0;
      detail::find_str(line, "\"end\":\"", &end);
      detail::find_u64(line, "\"retries\":", &retries);
      detail::find_u64(line, "\"fallback\":", &fallback);
      const int close = kind_of(end);
      if (close < 0) continue;
      const bool is_ll = end == "ll_fast" || end == "ll_rescue";
      const auto dur_pos = line.find("\"dur\":");
      const double dur_us =
          dur_pos == std::string::npos
              ? 0.0
              : std::strtod(line.c_str() + dur_pos + 6, nullptr);
      push(is_ll ? EventKind::kLlStart : EventKind::kScAttempt, ts_us);
      if (is_ll && fallback) push(EventKind::kLlFallback, ts_us);
      for (std::uint64_t i = 0; i < retries; ++i) {
        push(EventKind::kLlRetry, ts_us);
      }
      push(static_cast<EventKind>(close), ts_us + dur_us);
    } else {
      std::string name;
      detail::find_str(line, "\"name\":\"", &name);
      const int k = kind_of(name);
      if (k >= 0) push(static_cast<EventKind>(k), ts_us);
    }
  }
  std::fclose(f);
  if (!saw_header || !saw_schema || !saw_vars_end) {
    if (err) {
      *err = !saw_header ? "not an mwllsc chrome-trace export"
                         : "truncated: the trailing metadata block is missing";
    }
    return false;
  }
  if (out->dropped.size() < out->per_pid.size()) {
    out->dropped.resize(out->per_pid.size(), 0);
  }
  return true;
}

// --------------------------------------------------------- metrics export

/// Prometheus text exposition format: one TYPE line per base name, then
/// each series; histograms become summaries (p50/p99 quantiles + _count
/// and _max series).
inline bool write_prometheus(const std::string& path,
                             const MetricsRegistry& reg,
                             std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string last_base;
  for (const auto& [key, m] : reg.metrics()) {
    const auto [base, labels] = MetricsRegistry::split_key(key);
    if (base != last_base) {
      std::fprintf(f, "# TYPE %s %s\n", base.c_str(),
                   m.type == MetricsRegistry::Type::kCounter ? "counter"
                   : m.type == MetricsRegistry::Type::kGauge ? "gauge"
                                                             : "summary");
      last_base = base;
    }
    auto series = [&](const std::string& name, const std::string& extra,
                      double v) {
      std::string lbl = labels;
      if (!extra.empty()) lbl += (lbl.empty() ? "" : ",") + extra;
      if (lbl.empty()) {
        std::fprintf(f, "%s %.17g\n", name.c_str(), v);
      } else {
        std::fprintf(f, "%s{%s} %.17g\n", name.c_str(), lbl.c_str(), v);
      }
    };
    if (m.type == MetricsRegistry::Type::kHistogram) {
      series(base, "quantile=\"0.5\"",
             static_cast<double>(m.hist.percentile(0.5)));
      series(base, "quantile=\"0.99\"",
             static_cast<double>(m.hist.percentile(0.99)));
      series(base + "_count", "", static_cast<double>(m.hist.count()));
      series(base + "_max", "", static_cast<double>(m.hist.max()));
    } else {
      series(base, "", m.value);
    }
  }
  std::fclose(f);
  return true;
}

inline bool write_metrics_json(const std::string& path,
                               const MetricsRegistry& reg,
                               std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::fprintf(f, "{\n  \"schema_version\": %u,\n  \"metrics\": [\n",
               kTraceSchemaVersion);
  std::size_t i = 0;
  const auto& all = reg.metrics();
  for (const auto& [key, m] : all) {
    std::fprintf(f, "    {\"name\": \"%s\", \"type\": \"%s\", ",
                 key.c_str(),
                 m.type == MetricsRegistry::Type::kCounter ? "counter"
                 : m.type == MetricsRegistry::Type::kGauge ? "gauge"
                                                           : "histogram");
    if (m.type == MetricsRegistry::Type::kHistogram) {
      std::fprintf(f,
                   "\"p50\": %" PRIu64 ", \"p99\": %" PRIu64
                   ", \"max\": %" PRIu64 ", \"count\": %" PRIu64 "}",
                   m.hist.percentile(0.5), m.hist.percentile(0.99),
                   m.hist.max(), m.hist.count());
    } else {
      std::fprintf(f, "\"value\": %.17g}", m.value);
    }
    std::fprintf(f, "%s\n", ++i < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace mwllsc::obs
