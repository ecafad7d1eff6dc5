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
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace mwllsc::baseline {

template <class LLSC, class Env = core::NoEnv>
class RetryLLSC {
 public:
  RetryLLSC(std::uint32_t nprocs, std::uint32_t words)
      : n_(nprocs),
        w_(words),
        nbufs_(nprocs + 1),
        x_(nprocs, pack_x(0, nprocs)),
        buf_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
            nprocs + 1) * words]),
        priv_(new Priv[nprocs]),
        stats_(nprocs) {
    assert(nprocs >= 1 && nprocs <= kMaxProcs);
    assert(words >= 1);
    for (std::size_t i = 0; i < static_cast<std::size_t>(nbufs_) * w_; ++i) {
      buf_[i].store(0, std::memory_order_relaxed);
    }
    for (std::uint32_t p = 0; p < n_; ++p) priv_[p].spare = p;
  }

  void ll(std::uint32_t p, std::uint64_t* out) {
    assert(p < n_);
    Priv& me = priv_[p];
    trace_.emit(obs::EventKind::kLlStart, p);
    for (;;) {  // unbounded: lock-free, not wait-free
      Env::at("ll:link", p);
      const std::uint64_t x = x_.ll(p);
      const std::uint32_t b = buf_of_x(x);
      copy_out(b, out, p);
      std::atomic_thread_fence(std::memory_order_acquire);
      Env::at("ll:validate", p);
      if (x_.vl(p)) {
        me.ll_buf = b;
        me.link_valid = true;
        stats_.at(p).bump(stats_.at(p).ll_ops);
        trace_.emit(obs::EventKind::kLlFast, p, 0, b);
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
    copy_in(me.spare, v, p);
    std::atomic_thread_fence(std::memory_order_release);
    Env::at("sc:x", p);
    if (!x_.sc(p, pack_x(p, me.spare))) {
      trace_.emit(obs::EventKind::kScFail, p);
      return false;
    }
    c.bump(c.sc_success);
    trace_.emit(obs::EventKind::kScCommit, p);
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
    f.add("value buffers ((N+1) x W words)",
          static_cast<std::size_t>(nbufs_) * w_ * sizeof(std::uint64_t));
    f.add("per-process state (private)",
          n_ * sizeof(Priv) + x_.private_bytes() + stats_.bytes(),
          util::Footprint::Ownership::kPerProcess);
    return f;
  }

 private:
  static constexpr std::uint32_t kBufBits = 18;
  static constexpr std::uint32_t kPidBits = 14;
  static constexpr std::uint32_t kMaxProcs = 1u << kPidBits;
  static_assert(LLSC::kValueBits >= kBufBits + kPidBits,
                "engine value too narrow for the <pid, buf> descriptor");

  static std::uint64_t pack_x(std::uint32_t pid, std::uint32_t buf) {
    return (static_cast<std::uint64_t>(pid) << kBufBits) | buf;
  }
  static std::uint32_t buf_of_x(std::uint64_t x) {
    return static_cast<std::uint32_t>(x & ((1u << kBufBits) - 1));
  }

  struct alignas(64) Priv {
    std::uint32_t spare = 0;
    std::uint32_t ll_buf = 0;
    bool link_valid = false;
  };

  void copy_out(std::uint32_t b, std::uint64_t* out, std::uint32_t p) const {
    const std::atomic<std::uint64_t>* row =
        buf_.get() + static_cast<std::size_t>(b) * w_;
    for (std::uint32_t i = 0; i < w_; ++i) {
      Env::at("ll:copy", p);
      out[i] = row[i].load(std::memory_order_relaxed);
    }
  }

  void copy_in(std::uint32_t b, const std::uint64_t* v, std::uint32_t p) {
    std::atomic<std::uint64_t>* row =
        buf_.get() + static_cast<std::size_t>(b) * w_;
    for (std::uint32_t i = 0; i < w_; ++i) {
      Env::at("sc:copy", p);
      row[i].store(v[i], std::memory_order_relaxed);
    }
  }

  const std::uint32_t n_;
  const std::uint32_t w_;
  const std::uint32_t nbufs_;
  LLSC x_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buf_;
  std::unique_ptr<Priv[]> priv_;
  util::OpStatsArray stats_;
  obs::TraceHandle trace_;
};

}  // namespace mwllsc::baseline
