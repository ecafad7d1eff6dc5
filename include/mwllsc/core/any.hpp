// Type-erased facade over the multiword LL/SC implementations, in the
// spirit of Brown, Ellen & Ruppert's "pragmatic primitives": a uniform
// LL/SC/VL contract (failures are semantic — an SC fails iff another
// successful SC intervened since the caller's LL — never spurious) so the
// benches and applications can swap substrates behind one interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/trace.hpp"
#include "util/checked.hpp"
#include "util/stats.hpp"

namespace mwllsc::core {

class IMwLLSC {
 public:
  virtual ~IMwLLSC() = default;

  /// Copies the current W-word value into `out` and links process `pid`.
  virtual void ll(std::uint32_t pid, std::uint64_t* out) = 0;

  /// Installs `in` iff no successful SC intervened since pid's last LL.
  /// Consumes the link either way.
  virtual bool sc(std::uint32_t pid, const std::uint64_t* in) = 0;

  /// True iff pid's link is still current. Does not consume the link.
  virtual bool vl(std::uint32_t pid) = 0;

  /// Validated partial read: copies words [first, first+count) of the
  /// current value into `out` without touching pid's link, and returns
  /// true iff the copy is exactly one version's words, current at an
  /// instant inside the call. False means "use ll" (out unspecified).
  /// Throws std::invalid_argument unless count >= 1 and first+count <= W.
  ///
  /// The default answers false after the range check, so a decorator that
  /// does not forward the call (perfbench's TimedAny, and MwLLSCAdapter
  /// over its TimedCore) stays correct: its callers take the LL path.
  /// MwLLSCAdapter forwards to every implementation that has try_read.
  virtual bool try_read(std::uint32_t pid, std::uint32_t first,
                        std::uint32_t count, std::uint64_t* out) {
    (void)pid;
    (void)out;
    util::check_range(first, count, words(),
                      "IMwLLSC::try_read: need count >= 1, first+count <= W");
    return false;
  }

  virtual std::uint32_t words() const = 0;
  virtual OpStatsSnapshot stats() const = 0;
  virtual util::Footprint footprint() const = 0;

  /// Binds this variable to a trace sink under id `var` (obs/trace.hpp).
  /// No-op in MWLLSC_TRACE-off builds and for untraced implementations.
  virtual void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    (void)sink;
    (void)var;
  }
};

namespace detail {

/// Whether T has try_read(pid, first, count, out). perfbench's TimedCore
/// decorator does not, and must still adapt.
template <class T, class = void>
struct HasTryRead : std::false_type {};
template <class T>
struct HasTryRead<T, std::void_t<decltype(std::declval<T&>().try_read(
                         0u, 0u, 0u, static_cast<std::uint64_t*>(nullptr)))>>
    : std::true_type {};

}  // namespace detail

/// Adapts any concrete implementation with the same member signatures;
/// try_read is forwarded when T has it.
template <class T>
class MwLLSCAdapter final : public IMwLLSC {
 public:
  MwLLSCAdapter(std::uint32_t nprocs, std::uint32_t words)
      : impl_(nprocs, words) {}

  void ll(std::uint32_t pid, std::uint64_t* out) override {
    impl_.ll(pid, out);
  }
  bool sc(std::uint32_t pid, const std::uint64_t* in) override {
    return impl_.sc(pid, in);
  }
  bool vl(std::uint32_t pid) override { return impl_.vl(pid); }
  bool try_read(std::uint32_t pid, std::uint32_t first, std::uint32_t count,
                std::uint64_t* out) override {
    if constexpr (detail::HasTryRead<T>::value) {
      return impl_.try_read(pid, first, count, out);
    } else {
      return IMwLLSC::try_read(pid, first, count, out);
    }
  }
  std::uint32_t words() const override { return impl_.words(); }
  OpStatsSnapshot stats() const override { return impl_.stats(); }
  util::Footprint footprint() const override { return impl_.footprint(); }
  void set_trace(obs::TraceSink* sink, std::uint32_t var) override {
    impl_.set_trace(sink, var);
  }

  T& impl() { return impl_; }

 private:
  T impl_;
};

/// Named constructor: make(nprocs, words) yields a fresh object.
struct MwLLSCFactory {
  std::string name;
  std::function<std::unique_ptr<IMwLLSC>(std::uint32_t, std::uint32_t)> make;
};

}  // namespace mwllsc::core
