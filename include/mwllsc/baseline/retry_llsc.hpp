// Lock-free retry strawman: the obvious buffer-swing construction with no
// helping at all. SC is a single 1-word SC on the descriptor; LL retries
// its copy until a validation passes. Writers are lock-free and fast —
// but a reader's copy loop can be invalidated forever under a write storm
// (reader starvation), which is exactly the gap between lock-freedom and
// the paper's wait-freedom (experiments E8/E9). It has no LL step bound.
// Env::at marks each shared access, as in core (core/env.hpp).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/env.hpp"
#include "core/llsc.hpp"
#include "core/rows.hpp"
#include "obs/trace.hpp"
#include "util/checked.hpp"
#include "util/stats.hpp"

namespace mwllsc::baseline {

template <class LLSC, class Env = core::NoEnv>
class RetryLLSC {
 public:
  /// Throws std::invalid_argument, in every build and before anything is
  /// allocated, unless 1 <= nprocs <= 2^14 and words >= 1.
  RetryLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(util::checked(nprocs, nprocs >= 1 && nprocs <= core::kMaxProcs,
                         "RetryLLSC: nprocs must be in [1, 2^14]")),
        w_(util::checked(words, words >= 1, "RetryLLSC: words must be >= 1")),
        x_(nprocs, nprocs),
        rows_(nprocs + 1, words),  // line-padded, as in core
        priv_(new Priv[nprocs]),
        stats_(nprocs) {
    for (std::uint32_t p = 0; p < n_; ++p) priv_[p].spare = p;
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    trace_.emit(obs::EventKind::kLlStart, p);
    for (;;) {  // unbounded: lock-free, not wait-free
      Env::at("ll:link", p);
      const std::uint32_t b = core::buf_field(x_.ll(p));
      rows_.read<Env>(b, out, p, "ll:copy");
      std::atomic_thread_fence(std::memory_order_acquire);
      Env::at("ll:validate", p);
      if (x_.vl(p)) {
        me.ll_buf = b;
        me.link_valid = true;
        stats_.at(p).bump(stats_.at(p).ll_ops);
        trace_.emit(obs::EventKind::kLlFast, p, x_.linked_tag(p), b);
        return;
      }
      trace_.emit(obs::EventKind::kLlRetry, p);
    }
  }

  bool sc(std::uint32_t p, const std::uint64_t* v) {
    assert(p < n_);
    Priv& me = priv_[p];
    auto& c = stats_.at(p);
    c.bump(c.sc_ops);
    trace_.emit(obs::EventKind::kScAttempt, p, 0, me.link_valid ? 1 : 0);
    if (!me.link_valid) {
      trace_.emit(obs::EventKind::kScFail, p);
      return false;
    }
    me.link_valid = false;
    rows_.write<Env>(me.spare, v, p);
    std::atomic_thread_fence(std::memory_order_release);
    const std::uint64_t t = x_.linked_tag(p);
    Env::at("sc:x", p);
    if (!x_.sc(p, me.spare)) {
      trace_.emit(obs::EventKind::kScFail, p);
      return false;
    }
    c.bump(c.sc_success);
    trace_.emit(obs::EventKind::kScCommit, p, t + 1);
    me.spare = me.ll_buf;
    trace_.emit(obs::EventKind::kBankWrite, p, 0, me.spare);
    return true;
  }

  bool vl(std::uint32_t p) {
    assert(p < n_);
    auto& c = stats_.at(p);
    c.bump(c.vl_ops);
    if (!priv_[p].link_valid) return false;
    Env::at("vl", p);
    return x_.vl(p);
  }

  /// Validated partial read of words [first, first+count), as core's
  /// (count+2 accesses, p's link untouched), but exact: a retired buffer
  /// is rewritten by its new owner's next SC, so only an unchanged tag
  /// proves the copy untorn. Throws std::invalid_argument, in every build,
  /// unless count >= 1 and first + count <= W.
  bool try_read(std::uint32_t p, std::uint32_t first, std::uint32_t count,
                std::uint64_t* out) {
    assert(p < n_);
    util::check_range(first, count, w_,
                      "RetryLLSC::try_read: need count >= 1, first+count <= W");
    return rows_.read_range<Env>(x_, first, count, out, p) == 0;
  }

  std::uint32_t words() const { return w_; }

  /// The abstract version: X's tag, the number of successful SCs so far.
  std::uint64_t version() const { return x_.current_tag(); }

  core::OpStatsSnapshot stats() const { return stats_.snapshot(); }

  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    trace_.bind(sink, var);
    if (sink) sink->describe_var(var, w_, "retry");
  }

  util::Footprint footprint() const {
    util::Footprint f;
    f.add("X descriptor (1-word LL/SC)", x_.shared_bytes());
    f.add("value buffers ((N+1) x W words, rows line-padded)",
          rows_.bytes());
    f.add("per-process state (private)",
          n_ * sizeof(Priv) + x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

 private:
  // X holds the current buffer's bare index (core/rows.hpp).
  struct alignas(64) Priv {
    std::uint32_t spare = 0;
    std::uint32_t ll_buf = 0;
    bool link_valid = false;
  };

  const std::uint32_t n_;
  const std::uint32_t w_;
  LLSC x_;
  core::BufferRows rows_;  ///< the N+1 value buffers
  std::unique_ptr<Priv[]> priv_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::baseline
