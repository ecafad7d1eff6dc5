// The W-word value rows of a buffer pool (core::MwLLSC, baseline::RetryLLSC,
// baseline::AmLLSC), and the buffer-index domain they share. Rows sit at a
// stride of whole cache lines — W rounded up to 8 words — from a
// 64-byte-aligned row 0, so no two rows share a line: a reader copying one
// row never false-shares with a writer filling another, and line k of every
// row starts at word 8k.
//
// A buffer index is kBufBits wide wherever a shared word carries one: X
// holds the bare index of the current buffer, and the announce and ring
// words keep it in an 18-bit field.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace mwllsc::core {

inline constexpr std::uint32_t kBufBits = 18;
/// The classes that swing X over buffer indices accept at most 2^14
/// processes.
inline constexpr std::uint32_t kMaxProcs = 1u << 14;
// Core keeps N+R+1 buffers with N <= 2^14 and R = max(2, P) <= 2^14 (the
// baselines N+1): every index fits the 18-bit field.
static_assert(2 * kMaxProcs + 1 <= (1u << kBufBits),
              "buffer index wider than kBufBits");

/// The buffer index in the low kBufBits of `w`.
inline std::uint32_t buf_field(std::uint64_t w) {
  return static_cast<std::uint32_t>(w & ((1u << kBufBits) - 1));
}

class BufferRows {
 public:
  /// `rows` all-zero rows of `words` words each.
  BufferRows(std::uint32_t rows, std::uint32_t words)
      : words_(words),
        stride_((words + 7) & ~7u),
        words_total_(static_cast<std::size_t>(rows) * stride_),
        // + 7 words: new[] aligns to 8 bytes, row 0 moves up to 56 bytes.
        raw_(new std::atomic<std::uint64_t>[words_total_ + 7]) {
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_.get());
    row0_ = raw_.get() + ((64 - (addr & 63)) & 63) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < words_total_; ++i) {
      row0_[i].store(0, std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint64_t>* row(std::uint32_t b) const {
    return row0_ + static_cast<std::size_t>(b) * stride_;
  }

  /// Copies row b into out, one Env step (named `point`) per word. The
  /// caller validates the copy.
  template <class Env>
  void read(std::uint32_t b, std::uint64_t* out, std::uint32_t p,
            const char* point) const {
    const std::atomic<std::uint64_t>* r = row(b);
    // Read-prefetch lines 1..ceil(W/8)-1 so a multi-line copy waits on its
    // line misses together instead of one after another (line 0 is
    // demanded by the loop at once). A prefetch is a hint, not a shared
    // access: it is outside the step count and the memory-ordering
    // discipline, and the copy is validated exactly as before (DESIGN.md
    // §2).
    for (std::uint32_t i = 8; i < words_; i += 8) {
      __builtin_prefetch(r + i, 0, 3);
    }
    for (std::uint32_t i = 0; i < words_; ++i) {
      Env::at(point, p);
      out[i] = r[i].load(std::memory_order_relaxed);
    }
  }

  /// Writes v into row b, one "sc:copy" Env step per word: an SC writing
  /// its value into its spare. The caller publishes the row.
  template <class Env>
  void write(std::uint32_t b, const std::uint64_t* v, std::uint32_t p) {
    std::atomic<std::uint64_t>* r = row(b);
    for (std::uint32_t i = 0; i < words_; ++i) {
      Env::at("sc:copy", p);
      r[i].store(v[i], std::memory_order_relaxed);
    }
  }

  /// Shared bytes: every padded row plus the alignment slack.
  std::size_t bytes() const {
    return words_total_ * sizeof(std::uint64_t) + 64;
  }

 private:
  const std::uint32_t words_;   ///< W, the words a read or write copies
  const std::uint32_t stride_;  ///< row pitch in words, whole lines
  const std::size_t words_total_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> raw_;
  std::atomic<std::uint64_t>* row0_ = nullptr;  ///< 64B-aligned row 0
};

}  // namespace mwllsc::core
