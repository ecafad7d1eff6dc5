// Spans for the traced run, recorded from the benchmark's own files at the
// boundary of each layer's public API — nothing under include/ is touched.
//
// A span has a name, start, end, thread, parent span and operation id. Each
// worker thread owns a preallocated SpanBuffer (no allocation, no sharing
// while the workload runs); a span's self time is computed when it closes,
// as its duration minus the durations of the child spans it covers. The
// buffers are written out once, after the run, as Chrome trace JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open.
//
// The decorators hand each layer a timed version of the object below it:
//   TimedCore<Impl>  the MwLLSC member surface, for ManagedMwLLSC<Impl> and
//                    for the direct callers of core (spans core.ll/core.sc);
//   TimedAny         an IMwLLSC wrapper passed as the apps::Substrate
//                    (spans any.ll/any.sc).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/universal.hpp"
#include "core/any.hpp"
#include "util/timing.hpp"

namespace perfbench {

enum SpanName : std::uint16_t {
  kOp,  // one benchmark operation, first LL to commit or return
  kCoreLl,
  kCoreScCommit,
  kCoreScFail,
  kAnyLl,
  kAnyScCommit,
  kAnyScFail,
  kAppsApply,
  kJoin,
  kRetire,
  kAbandon,
  kReclaimScan,
  kSpanNames
};

inline const char* span_name(std::uint16_t n) {
  static const char* const kNames[kSpanNames] = {
      "bench.op",         "core.ll",          "core.sc_commit",
      "core.sc_fail",     "any.ll",           "any.sc_commit",
      "any.sc_fail",      "apps.apply",       "membership.join",
      "membership.retire", "membership.abandon", "membership.reclaim_scan"};
  return n < kSpanNames ? kNames[n] : "?";
}

struct Span {
  std::uint64_t start = 0, end = 0;  ///< steady_clock ns
  std::uint64_t self_ns = 0;         ///< duration minus covered children
  std::uint64_t op = 0;              ///< the operation this span serves
  std::uint32_t id = 0, parent = 0;  ///< per-thread ids; parent 0 = root
  std::uint16_t name = 0, tid = 0;
  bool child_committed = false;  ///< a direct child was a committing SC
};

/// One thread's span store. Spans are recorded only while `recording` is
/// set — the workload sets it for sampled operations — so the traced run
/// pays two clock reads per span on a small, fixed share of operations.
class SpanBuffer {
 public:
  SpanBuffer(std::uint16_t tid, std::size_t capacity) : tid_(tid) {
    spans_.reserve(capacity);
  }

  void set_recording(bool on, std::uint64_t op) {
    recording_ = on;
    op_ = op;
  }
  bool recording() const { return recording_; }

  bool open(std::uint16_t name) {
    if (depth_ == kMaxDepth) return false;
    stack_[depth_++] = Open{next_id_++, name, mwllsc::util::now_ns(), 0, false};
    return true;
  }

  void close(std::uint16_t name) {
    const std::uint64_t end = mwllsc::util::now_ns();
    const Open o = stack_[--depth_];
    const std::uint64_t dur = end - o.start;
    std::uint32_t parent = 0;
    if (depth_ > 0) {
      Open& up = stack_[depth_ - 1];
      up.child_ns += dur;
      up.child_committed |= name == kCoreScCommit || name == kAnyScCommit;
      parent = up.id;
    }
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    Span s;
    s.start = o.start;
    s.end = end;
    s.self_ns = dur > o.child_ns ? dur - o.child_ns : 0;
    s.op = op_;
    s.id = o.id;
    s.parent = parent;
    s.name = name;
    s.tid = tid_;
    s.child_committed = o.child_committed;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  static constexpr int kMaxDepth = 8;
  struct Open {
    std::uint32_t id;
    std::uint16_t name;
    std::uint64_t start;
    std::uint64_t child_ns;
    bool child_committed;
  };

  std::vector<Span> spans_;
  Open stack_[kMaxDepth] = {};
  int depth_ = 0;
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::uint64_t op_ = 0;
  bool recording_ = false;
  std::uint16_t tid_;
};

/// The calling thread's buffer; null outside a traced trial.
inline thread_local SpanBuffer* tl_spans = nullptr;

/// RAII span, opened only if this thread is recording. `rename` lets an SC
/// span be filed under its outcome once the call returns.
class SpanScope {
 public:
  explicit SpanScope(std::uint16_t name) : name_(name) {
    SpanBuffer* b = tl_spans;
    if (b != nullptr && b->recording() && b->open(name)) buf_ = b;
  }
  ~SpanScope() {
    if (buf_ != nullptr) buf_->close(name_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void rename(std::uint16_t name) { name_ = name; }

 private:
  SpanBuffer* buf_ = nullptr;
  std::uint16_t name_;
};

/// Core-boundary decorator with MwLLSC's member surface.
template <class Impl>
class TimedCore {
 public:
  TimedCore(std::uint32_t nprocs, std::uint32_t words) : impl_(nprocs, words) {}

  void ll(std::uint32_t p, std::uint64_t* out) {
    SpanScope s(kCoreLl);
    impl_.ll(p, out);
  }
  bool sc(std::uint32_t p, const std::uint64_t* in) {
    SpanScope s(kCoreScFail);
    const bool ok = impl_.sc(p, in);
    if (ok) s.rename(kCoreScCommit);
    return ok;
  }
  bool vl(std::uint32_t p) { return impl_.vl(p); }
  bool reclaim_pid(std::uint32_t p) { return impl_.reclaim_pid(p); }
  void rebind_pid(std::uint32_t p) { impl_.rebind_pid(p); }
  std::uint32_t words() const { return impl_.words(); }
  mwllsc::core::OpStatsSnapshot stats() const { return impl_.stats(); }
  mwllsc::util::Footprint footprint() const { return impl_.footprint(); }
  void set_trace(mwllsc::obs::TraceSink* sink, std::uint32_t var) {
    impl_.set_trace(sink, var);
  }

 private:
  Impl impl_;
};

/// Facade-boundary decorator: an IMwLLSC that times calls into another.
class TimedAny final : public mwllsc::core::IMwLLSC {
 public:
  explicit TimedAny(std::unique_ptr<mwllsc::core::IMwLLSC> inner)
      : inner_(std::move(inner)) {}

  void ll(std::uint32_t pid, std::uint64_t* out) override {
    SpanScope s(kAnyLl);
    inner_->ll(pid, out);
  }
  bool sc(std::uint32_t pid, const std::uint64_t* in) override {
    SpanScope s(kAnyScFail);
    const bool ok = inner_->sc(pid, in);
    if (ok) s.rename(kAnyScCommit);
    return ok;
  }
  bool vl(std::uint32_t pid) override { return inner_->vl(pid); }
  std::uint32_t words() const override { return inner_->words(); }
  mwllsc::core::OpStatsSnapshot stats() const override {
    return inner_->stats();
  }
  mwllsc::util::Footprint footprint() const override {
    return inner_->footprint();
  }
  void set_trace(mwllsc::obs::TraceSink* sink, std::uint32_t var) override {
    inner_->set_trace(sink, var);
  }

 private:
  std::unique_ptr<mwllsc::core::IMwLLSC> inner_;
};

/// jp wrapped at both boundaries: TimedAny over the facade adapter over
/// TimedCore, so any.* spans have core.* children.
template <class Jp>
mwllsc::apps::Substrate timed_jp_substrate() {
  return [](std::uint32_t n, std::uint32_t w)
             -> std::unique_ptr<mwllsc::core::IMwLLSC> {
    return std::make_unique<TimedAny>(
        std::make_unique<mwllsc::core::MwLLSCAdapter<TimedCore<Jp>>>(n, w));
  };
}

/// Writes the spans as Chrome trace JSON (complete "X" events, times in
/// microseconds from the earliest span), at most `per_thread` spans per
/// thread. The last buffer is the main thread's.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<const SpanBuffer*>& bufs,
                               std::size_t per_thread) {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const SpanBuffer* b : bufs) {
    for (const Span& s : b->spans()) t0 = s.start < t0 ? s.start : t0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t t = 0; t < bufs.size(); ++t) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s %zu\"}}",
                 first ? "" : ",\n", t,
                 t + 1 == bufs.size() ? "main" : "worker", t);
    first = false;
    const auto& spans = bufs[t]->spans();
    const std::size_t n = spans.size() < per_thread ? spans.size() : per_thread;
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      const char* name = span_name(s.name);
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"op\":%llu,"
                   "\"self_ns\":%llu}}",
                   name, static_cast<int>(std::string(name).find('.')), name,
                   static_cast<unsigned>(s.tid),
                   static_cast<double>(s.start - t0) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, s.id, s.parent,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.self_ns));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
