// The simulator's checker. sim/harness.hpp calls it after every step
// (on_step), every completed operation (on_op) and every reclaim; ok()
// turns false, with error() explaining, at the first violation. It reads
// the real class only through its public surface — version(), stats()
// and, for core::MwLLSC, census() — and keeps no ghost state of the
// protocol.
//
//   oracle  The sequential specification of LL/SC/VL, for every class.
//           Each SC attempt writes a value no other attempt writes (word i
//           of attempt `id` is value_word(id, i); ids are never reused, not
//           even across reclaims), and the harness reports which access
//           advanced the version, so the value an LL returns names the one
//           version it belongs to. An LL must return a committed, untorn
//           value whose version was current inside the LL's
//           invocation/response window. An SC succeeds iff no successful
//           SC intervened since its LL's linearization: failures are
//           semantic, never spurious (the Brown–Ellen–Ruppert "pragmatic
//           primitives" contract). VL mirrors SC. jp's LL that accepts a
//           copy with drift in [1, P] and returns with its link broken is
//           exactly what this permits: a successful SC did intervene.
//   census  core::MwLLSC only:
//     I1    every buffer of the N+R+1 has exactly one owner: the object
//           (current), a process's spare (offered or not; an unconsumed
//           donation stands in for an offered one), or a ring cell;
//     I2    one bank write per successful SC: the successful SCs sum to the
//           version, and each process's successful SCs minus its bank
//           writes is 1 exactly while it is parked between its X commit
//           and its ring swap, 0 otherwise;
//     3W+6  no LL takes more than MwLLSC::ll_impl_bound(W) steps (inside
//           the paper's 4W+12), and ll_retries stays zero.
//
// Crash-stop schedules weaken nothing: a crashed process is a fiber parked
// forever, so its buffers stay owned where it left them, and a ring swap
// it left pending stays pending until reclaim_pid finishes it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace mwllsc::sim {

enum class OpType { kLl, kSc, kVl };

/// One completed operation, as the process's script saw it. Versions are
/// the class's version() (successful SCs so far) at the call and at the
/// return.
struct OpRecord {
  OpType type = OpType::kLl;
  std::uint32_t pid = 0;
  std::uint32_t steps = 0;          ///< shared accesses the op made
  bool success = false;             ///< SC/VL outcome; LL always true
  std::vector<std::uint64_t> value;  ///< LL: value read; SC: value written
  std::uint64_t sc_id = 0;          ///< SC: the attempt's value id
  std::uint64_t start_version = 0;
  std::uint64_t end_version = 0;
};

/// What one step did: process `pid` performed the access named `point`
/// while its SC attempt `sc_id` (0: none yet) was the latest it started.
/// `parked` names every process's next access (nullptr once its script
/// ended).
struct StepInfo {
  std::uint32_t pid;
  const char* point;
  std::uint64_t sc_id;
  const std::vector<const char*>& parked;
};

/// Word i of the value SC attempt `id` (>= 1) writes. The all-zero value
/// is version 0, the constructors' initial value.
inline std::uint64_t value_word(std::uint64_t id, std::uint32_t i) {
  return (id << 16) | (i + 1);
}

namespace detail {

template <class T, class = void>
struct HasCensus : std::false_type {};
template <class T>
struct HasCensus<T, std::void_t<typename T::Census>> : std::true_type {};

struct NoCensus {};
template <class T, bool = HasCensus<T>::value>
struct CensusOf {
  using type = NoCensus;
};
template <class T>
struct CensusOf<T, true> {
  using type = typename T::Census;
};

inline bool is_point(const char* point, const char* name) {
  return point != nullptr && std::strcmp(point, name) == 0;
}

}  // namespace detail

/// I1 on one core::MwLLSC census: each of its N+R+1 buffers has exactly
/// one owner — current, a process's spare, or a ring cell. Returns what is
/// wrong, or "" if I1 holds. `owners` is scratch, reused so a per-step
/// check does not allocate.
template <class Census>
std::string i1_error(const Census& c, std::vector<int>& owners) {
  char buf[160];
  owners.assign(c.buffers, 0);
  constexpr std::uint32_t kInRange = ~0u;  // buffer indices are 18-bit
  std::uint32_t bad = kInRange;  // first out-of-range index, if any
  auto own = [&](std::uint32_t b) {
    if (b < owners.size()) {
      ++owners[b];
    } else if (bad == kInRange) {
      bad = b;
    }
  };
  own(c.current);
  for (std::uint32_t b : c.spare) own(b);
  for (std::uint32_t b : c.ring) own(b);
  if (bad != kInRange) {
    std::snprintf(buf, sizeof(buf), "out-of-range buffer index %u", bad);
    return buf;
  }
  for (std::uint32_t b = 0; b < c.buffers; ++b) {
    if (owners[b] != 1) {
      std::snprintf(buf, sizeof(buf),
                    "buffer %u has %d owners (want exactly 1: current, a "
                    "spare, or a ring cell)",
                    b, owners[b]);
      return buf;
    }
  }
  return {};
}

template <class Impl>
class InvariantChecker {
 public:
  InvariantChecker(std::uint32_t n, std::uint32_t w)
      : w_(w), last_ll_(n, kNone), version_of_id_(1, kNever) {}

  void on_step(const Impl& obj, const StepInfo& s) {
    if (failed_) return;
    ++steps_;
    const std::uint64_t v = obj.version();
    if (v != version_) {
      if (v != version_ + 1 || !detail::is_point(s.point, "sc:x") ||
          s.sc_id == 0) {
        return fail("version moved %llu -> %llu at step %llu (p%u's %s): "
                    "only an X commit may advance it, by one",
                    ull(version_), ull(v), ull(steps_), s.pid,
                    s.point ? s.point : "?");
      }
      if (s.sc_id >= version_of_id_.size()) {
        version_of_id_.resize(s.sc_id + 1, kNever);
      }
      version_of_id_[s.sc_id] = v;
      version_ = v;
    }
    if constexpr (detail::HasCensus<Impl>::value) {
      obj.census(census_);
      check_i1();
      check_i2(s.parked);
      if (obj.stats().ll_retries != 0) {
        return fail("LL retry counted at step %llu: the 3W+6 help guarantee "
                    "is broken",
                    ull(steps_));
      }
    }
  }

  void on_op(const OpRecord& r) {
    if (failed_) return;
    const std::uint64_t link = last_ll_[r.pid];
    switch (r.type) {
      case OpType::kLl: {
        if constexpr (detail::HasCensus<Impl>::value) {
          if (r.steps > Impl::ll_impl_bound(w_)) {
            return fail("LL(p%u) took %u steps, over the 3W+6 bound of %u "
                        "(paper's 4W+12 = %u)",
                        r.pid, r.steps, Impl::ll_impl_bound(w_),
                        Impl::ll_step_bound(w_));
          }
        }
        const std::uint64_t l = version_of(r.value);
        if (l == kNever) {
          return fail("LL(p%u) returned a value no successful SC installed "
                      "(torn, or an attempt that never committed)",
                      r.pid);
        }
        if (l < r.start_version || l > r.end_version) {
          return fail("LL(p%u) returned version %llu, outside its window "
                      "[%llu, %llu]",
                      r.pid, ull(l), ull(r.start_version),
                      ull(r.end_version));
        }
        last_ll_[r.pid] = l;
        break;
      }
      case OpType::kVl:
        // True needs the linked version still current at the call; false
        // needs a successful SC after it by the return.
        if (link == kNone ? r.success
                          : (r.success ? r.start_version != link
                                       : r.end_version == link)) {
          return fail("VL(p%u) returned %d, linked version %llu, window "
                      "[%llu, %llu]",
                      r.pid, r.success ? 1 : 0, ull(link),
                      ull(r.start_version), ull(r.end_version));
        }
        break;
      case OpType::kSc: {
        last_ll_[r.pid] = kNone;  // the link is consumed either way
        const std::uint64_t installed = r.sc_id < version_of_id_.size()
                                            ? version_of_id_[r.sc_id]
                                            : kNever;
        if (r.success != (installed != kNever)) {
          return fail("SC(p%u) returned %d but its value was %scommitted",
                      r.pid, r.success ? 1 : 0,
                      installed != kNever ? "" : "never ");
        }
        if (link == kNone ? r.success
                          : (r.success ? installed != link + 1
                                       : r.end_version == link)) {
          return fail("SC(p%u) %s, linked version %llu, installed %llu, "
                      "version at return %llu: SC failures must be "
                      "semantic, never spurious",
                      r.pid, r.success ? "succeeded" : "failed", ull(link),
                      ull(installed), ull(r.end_version));
        }
        break;
      }
    }
  }

  /// A reclaimed pid's new holder starts with no link.
  void on_reclaim(std::uint32_t p) { last_ll_[p] = kNone; }

  bool ok() const { return !failed_; }
  const std::string& error() const { return error_; }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  static unsigned long long ull(std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  }

  /// The version whose value `v` is, or kNever if no committed SC wrote
  /// exactly this value.
  std::uint64_t version_of(const std::vector<std::uint64_t>& v) const {
    const std::uint64_t id = v[0] >> 16;
    if (id == 0) {
      for (std::uint64_t x : v) {
        if (x != 0) return kNever;
      }
      return 0;
    }
    if (id >= version_of_id_.size()) return kNever;
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      if (v[i] != value_word(id, i)) return kNever;
    }
    return version_of_id_[id];
  }

  void check_i1() {
    const std::string e = i1_error(census_, owners_);
    if (!e.empty()) fail("I1 violated at step %llu: %s", ull(steps_), e.c_str());
  }

  void check_i2(const std::vector<const char*>& parked) {
    const auto& c = census_;
    std::uint64_t commits = 0;
    for (std::size_t p = 0; p < c.sc_success.size(); ++p) {
      commits += c.sc_success[p];
      const bool pending = detail::is_point(parked[p], "sc:ring_load") ||
                           detail::is_point(parked[p], "sc:ring_cas");
      if (c.sc_success[p] - c.bank_writes[p] != (pending ? 1u : 0u)) {
        return fail("I2 violated at step %llu: p%zu has %llu successful SCs "
                    "and %llu bank writes with %s ring swap pending",
                    ull(steps_), p, ull(c.sc_success[p]),
                    ull(c.bank_writes[p]), pending ? "its" : "no");
      }
    }
    if (commits != c.version) {
      fail("I2 violated at step %llu: %llu successful SCs counted, version "
           "%llu",
           ull(steps_), ull(commits), ull(c.version));
    }
  }

  template <typename... Args>
  void fail(const char* fmt, Args... args) {
    if (failed_) return;
    char buf[320];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    failed_ = true;
    error_ = buf;
  }

  std::uint32_t w_;
  std::uint64_t steps_ = 0;
  std::uint64_t version_ = 0;
  bool failed_ = false;
  std::string error_;
  std::vector<std::uint64_t> last_ll_;        ///< per pid: linked version
  std::vector<std::uint64_t> version_of_id_;  ///< SC attempt id -> version
  std::vector<int> owners_;  ///< scratch for the I1 ownership census
  typename detail::CensusOf<Impl>::type census_;
};

}  // namespace mwllsc::sim
