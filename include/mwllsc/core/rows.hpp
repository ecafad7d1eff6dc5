// The W-word value rows of a buffer pool (core::MwLLSC, baseline::RetryLLSC,
// baseline::AmLLSC). Rows sit at a stride of whole cache lines — W rounded
// up to 8 words — from a 64-byte-aligned row 0, so no two rows share a
// line: a reader copying one row never false-shares with a writer filling
// another, and line k of every row starts at word 8k.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace mwllsc::core {

class BufferRows {
 public:
  /// `rows` all-zero rows of `words` words each.
  BufferRows(std::uint32_t rows, std::uint32_t words)
      : stride_((words + 7) & ~7u),
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

  /// Shared bytes: every padded row plus the alignment slack.
  std::size_t bytes() const {
    return words_total_ * sizeof(std::uint64_t) + 64;
  }

 private:
  const std::uint32_t stride_;  ///< row pitch in words, whole lines
  const std::size_t words_total_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> raw_;
  std::atomic<std::uint64_t>* row0_ = nullptr;  ///< 64B-aligned row 0
};

}  // namespace mwllsc::core
