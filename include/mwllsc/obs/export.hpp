// Trace files, the offline trace checker and metrics export (DESIGN.md §8).
//
// * write_trace / load_trace — the one trace file format: TraceData as it
//   is in memory (magic word, format version, tsc0, ns_per_tick, the vars,
//   then per pid its dropped count, event count and raw 32-byte events),
//   so load_trace(write_trace(d)) == d field by field and in order. The
//   loader refuses anything that is not one whole dump of this version.
//
// * check_trace — replays per-pid event streams and re-verifies, from
//   events alone: the LL step bounds — the paper's 4W+12 and the
//   implementation's 3W+6, both taken from core::MwLLSC — and zero
//   LL retries (broken help guarantees) for every variable labelled as the paper's protocol
//   ("jp…"), exactly one bank write per successful SC (invariant I2) for
//   every variable that emits bank writes, and the <= 3 LL/SC rounds bound
//   of the apps-layer help-all construction. Membership lifecycle events
//   are cross-checked too: pid leases must not overlap (join while live),
//   retire must not leave an LL window open, and a retired/reclaimed pid
//   must not emit protocol events until its next join — traces from
//   before the lifecycle layer carry no such events and are checked
//   exactly as before. Ring truncation is tolerated as a missing *prefix*
//   (orphan closes/bank-writes are skipped while dropped > 0). A result
//   that replayed no LL window is vacuous and proves nothing.
//
// * write_chrome_trace — an output-only Perfetto view: one track per pid,
//   closed LL/SC windows as "X" events, all else as instants, and a flow
//   arrow from each help_install to the LL that consumed the donation.
//
// * write_prometheus / write_metrics_json — text + JSON export of a
//   MetricsRegistry.
#pragma once

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/mwllsc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mwllsc::obs {

/// The dump's magic word and format version; bump the version on any
/// change to the layout or to EventKind's numbering. Fields are in host
/// byte order; on a machine of the other byte order a dump fails the
/// version check.
inline constexpr char kTraceMagic[8] = {'M', 'W', 'L', 'L', 'S', 'C', 'T', 'R'};
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// write_metrics_json's schema, versioned apart from the trace dump.
inline constexpr std::uint32_t kMetricsSchemaVersion = 3;

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
  bool truncated = false;           ///< some ring evicted its prefix
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// Nothing was verified: no completed LL window.
  bool vacuous() const { return lls_checked == 0; }
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

inline TraceCheckResult check_trace(const TraceData& d) {
  using Jp = core::MwLLSC<llsc::Dw128LLSC>;
  TraceCheckResult r;

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
                            "pid %zu var %u: LL retry on a jp variable "
                            "(help guarantee broken)",
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
            const std::uint64_t paper = Jp::ll_step_bound(w);
            const std::uint64_t impl = Jp::ll_impl_bound(w);
            const bool over_paper = steps > paper;
            if (over_paper || steps > impl) {
              std::snprintf(msg, sizeof(msg),
                            "pid %zu var %u: LL took %" PRIu64
                            " derived steps > %s = %" PRIu64
                            " (W=%u, rounds=%u, retries=%u)",
                            pid, e.var, steps, over_paper ? "4W+12" : "3W+6",
                            over_paper ? paper : impl,
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

// ------------------------------------------------------------ trace dump

/// Writes `d` as a trace dump (layout in the file comment). Returns false
/// and fills *err on I/O failure.
inline bool write_trace(const std::string& path, const TraceData& d,
                        std::string* err = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  bool ok = true;
  auto put = [&](const void* p, std::size_t n) {
    if (n > 0 && std::fwrite(p, 1, n, f) != n) ok = false;
  };
  auto put_u32 = [&](std::size_t v) {
    const auto u = static_cast<std::uint32_t>(v);
    put(&u, sizeof(u));
  };
  put(kTraceMagic, sizeof(kTraceMagic));
  put_u32(kTraceFormatVersion);
  put(&d.tsc0, sizeof(d.tsc0));
  put(&d.ns_per_tick, sizeof(d.ns_per_tick));
  put_u32(d.vars.size());
  for (const auto& v : d.vars) {
    put_u32(v.id);
    put_u32(v.words);
    put_u32(v.label.size());
    put(v.label.data(), v.label.size());
  }
  put_u32(d.per_pid.size());
  for (std::size_t p = 0; p < d.per_pid.size(); ++p) {
    const std::uint64_t head[2] = {p < d.dropped.size() ? d.dropped[p] : 0,
                                   d.per_pid[p].size()};
    put(head, sizeof(head));
    put(d.per_pid[p].data(), d.per_pid[p].size() * sizeof(TraceEvent));
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok && err) *err = "write failed: " + path;
  return ok;
}

/// Reads a write_trace dump into *out. Fails (false, *err set) on a file
/// that is not one whole dump of this format version: empty or cut short
/// anywhere, a bad magic word, another version, trailing bytes, an event
/// kind >= kCount, or an event whose pid is not its stream's.
inline bool load_trace(const std::string& path, TraceData* out,
                       std::string* err = nullptr) {
  auto fail = [&](std::string why) {
    if (err) *err = std::move(why);
    return false;
  };
  std::ifstream file(path, std::ios::binary);
  if (!file) return fail("cannot open " + path);
  const std::string bytes{std::istreambuf_iterator<char>(file), {}};
  if (bytes.empty()) return fail("empty file");

  std::size_t at = 0;  // read cursor; every read is bounds-checked
  auto left = [&] { return bytes.size() - at; };
  auto take = [&](void* dst, std::size_t n) {
    if (left() < n) return false;
    if (n > 0) std::memcpy(dst, bytes.data() + at, n);  // dst may be null
    at += n;
    return true;
  };
  auto get = [&](auto* v) { return take(v, sizeof(*v)); };
  const std::string cut = "truncated: the file ends inside ";

  char magic[sizeof(kTraceMagic)] = {};
  std::uint32_t version = 0;
  const bool whole = take(magic, sizeof(magic)) && get(&version);
  if (at >= sizeof(magic) &&
      std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
    return fail("bad magic word: not an mwllsc trace dump");
  }
  if (!whole) return fail(cut + "the header");
  if (version != kTraceFormatVersion) {
    return fail("unknown format version " + std::to_string(version) +
                " (this build reads " + std::to_string(kTraceFormatVersion) +
                ")");
  }
  TraceData d;
  std::uint32_t nvars = 0;
  if (!get(&d.tsc0) || !get(&d.ns_per_tick) || !get(&nvars)) {
    return fail(cut + "the header");
  }
  for (std::uint32_t i = 0; i < nvars; ++i) {
    TraceData::VarInfo v;
    std::uint32_t len = 0;
    if (!get(&v.id) || !get(&v.words) || !get(&len) || left() < len) {
      return fail(cut + "var " + std::to_string(i));
    }
    v.label.resize(len);
    take(v.label.data(), len);
    d.vars.push_back(std::move(v));
  }
  std::uint32_t npids = 0;
  if (!get(&npids)) return fail(cut + "the header");
  for (std::uint32_t p = 0; p < npids; ++p) {
    const std::string where = "pid " + std::to_string(p);
    std::uint64_t dropped = 0, count = 0;
    if (!get(&dropped) || !get(&count) ||
        left() / sizeof(TraceEvent) < count) {
      return fail(cut + where + "'s stream");
    }
    std::vector<TraceEvent> stream(static_cast<std::size_t>(count));
    take(stream.data(), stream.size() * sizeof(TraceEvent));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const TraceEvent& e = stream[i];
      const bool known = e.kind < static_cast<std::uint16_t>(EventKind::kCount);
      if (known && e.pid == p) continue;
      return fail(where + " event " + std::to_string(i) + ": " +
                  (known ? "recorded under pid " + std::to_string(e.pid)
                         : "kind " + std::to_string(e.kind) + " >= kCount"));
    }
    d.dropped.push_back(dropped);
    d.per_pid.push_back(std::move(stream));
  }
  if (left() != 0) {
    return fail(std::to_string(left()) +
                " trailing bytes after the last stream");
  }
  *out = std::move(d);
  return true;
}

// ------------------------------------------------ chrome-trace view (write)

/// Writes a Chrome-trace JSON view of `d` (open in ui.perfetto.dev or
/// chrome://tracing). Output only: the dump is the file to check or
/// reload. Returns false and fills *err on I/O failure.
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
  auto us = [&](std::uint64_t tsc) { return d.ns_of(tsc) / 1000.0; };
  // Matches a donation to its consumption: (var, helpee pid, seq).
  auto flow_id = [](std::uint32_t var, std::uint32_t pid, std::uint64_t seq) {
    return (seq & ((std::uint64_t{1} << 40) - 1)) << 24 |
           (static_cast<std::uint64_t>(var & 0x3ff) << 14) | (pid & 0x3fff);
  };
  auto instant = [&](std::size_t pid, const TraceEvent& e) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"mwllsc\","
                 "\"s\":\"t\",\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                 "\"args\":{\"var\":%u,\"tag\":%" PRIu64 ",\"arg\":%u}}",
                 event_name(static_cast<EventKind>(e.kind)), pid, us(e.tsc),
                 e.var, e.tag, e.arg);
  };

  // Where each donation lands: flow targets on the helpee's track.
  std::map<std::uint64_t, std::uint64_t> consume_tsc;  // flow id -> tsc
  for (const auto& stream : d.per_pid) {
    for (const TraceEvent& e : stream) {
      const auto k = static_cast<EventKind>(e.kind);
      if (k == EventKind::kLlHelped || k == EventKind::kLlRescue) {
        consume_tsc[flow_id(e.var, e.pid, e.tag)] = e.tsc;
      }
    }
  }

  for (std::size_t pid = 0; pid < d.per_pid.size(); ++pid) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
                 "\"tid\":%zu,\"args\":{\"name\":\"process %zu\"}}",
                 pid, pid);
    // Per var, the opener of its open LL window [0] and SC window [1].
    std::map<std::uint32_t, std::array<const TraceEvent*, 2>> open;
    for (const TraceEvent& e : d.per_pid[pid]) {
      const auto k = static_cast<EventKind>(e.kind);
      const bool opens_sc = k == EventKind::kScAttempt;
      const bool closes_ll = k == EventKind::kLlFast ||
                             k == EventKind::kLlRescue;
      const bool closes_sc = k == EventKind::kScCommit ||
                             k == EventKind::kScFail;
      if (k == EventKind::kLlStart || opens_sc) {
        const TraceEvent*& slot = open[e.var][opens_sc];
        if (slot) instant(pid, *slot);  // a window that never closed
        slot = &e;
        continue;
      }
      if (closes_ll || closes_sc) {
        const TraceEvent*& slot = open[e.var][closes_sc];
        if (slot) {
          const double ts = us(slot->tsc);
          sep();
          std::fprintf(f,
                       "{\"ph\":\"X\",\"name\":\"%s(%s)\",\"cat\":\"mwllsc\","
                       "\"pid\":0,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                       "\"args\":{\"var\":%u,\"tag\":%" PRIu64 ",\"arg\":%u}}",
                       closes_ll ? "LL" : "SC", event_name(k), pid, ts,
                       us(e.tsc) > ts ? us(e.tsc) - ts : 0.0, e.var, e.tag,
                       e.arg);
          slot = nullptr;
          continue;
        }
        // An orphan close from an evicted prefix stays an instant.
      }
      instant(pid, e);

      // A consumed donation grows a flow arrow to the helpee's track.
      if (k == EventKind::kHelpInstall) {
        const std::uint64_t id = flow_id(e.var, e.arg, e.tag);
        const auto it = consume_tsc.find(id);
        if (it != consume_tsc.end()) {
          sep();
          std::fprintf(f,
                       "{\"ph\":\"s\",\"name\":\"donation\",\"cat\":\"help\","
                       "\"id\":%" PRIu64 ",\"pid\":0,\"tid\":%zu,\"ts\":%.3f}",
                       id, pid, us(e.tsc));
          sep();
          std::fprintf(f,
                       "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"donation\","
                       "\"cat\":\"help\",\"id\":%" PRIu64
                       ",\"pid\":0,\"tid\":%u,\"ts\":%.3f}",
                       id, e.arg, us(it->second));
        }
      }
    }
    for (const auto& [var, slots] : open) {
      for (const TraceEvent* s : slots) {
        if (s) instant(pid, *s);
      }
    }
  }

  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ms\",\n\"mwllsc\": {\n");
  std::fprintf(f, "  \"format_version\": %u,\n", kTraceFormatVersion);
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
               kMetricsSchemaVersion);
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
