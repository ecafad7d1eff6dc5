// Facade-level LL/SC/VL semantics, run identically against all four
// implementations: single-thread round-trips, semantic SC failure after an
// intervening SC, VL behavior, full-width multiword values, and counter
// sanity. Widths straddle the 8-word line of a buffer row (1, 6, 8, 9, 64,
// 74), and every word of every value is distinct from every other word and
// from the same word of every other value, so a copy that drops, repeats or
// shifts a word — or mixes two versions — at a line boundary fails.
// Also: try_read's contract (the words ll reads, the link untouched, bad
// ranges refused; the facade default for an implementation without it) and
// the constructor preconditions every implementation enforces in every
// build.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bench_common.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

constexpr std::uint32_t kWidths[] = {1, 6, 8, 9, 64, 74};

// Word i of version `salt`: an odd multiplier keeps the words of one
// version distinct, the additive salt keeps versions apart word by word.
void fill(std::vector<std::uint64_t>& v, std::uint64_t salt) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 0x9E3779B97F4A7C15ULL * (i + 1) + (salt << 40);
  }
}

// Preconditions (constructor arguments, try_read ranges) hold in every
// build: refused with std::invalid_argument.
template <class Make>
bool refuses(Make make) {
  try {
    make();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

// try_read's contract on a quiescent object holding `cur`: any range reads
// the same words ll does; between ll and sc it leaves the link alone (vl
// holds across it, the sc commits); a bad range is refused.
void try_read_for(core::IMwLLSC& obj, std::uint32_t w,
                  std::vector<std::uint64_t>& cur) {
  std::vector<std::uint64_t> part(w), mine(w);
  for (std::uint32_t first : {0u, w / 2, w - 1}) {
    for (std::uint32_t count : {1u, w - first}) {
      std::fill(part.begin(), part.end(), ~std::uint64_t{0});
      CHECK(obj.try_read(2, first, count, part.data()));
      for (std::uint32_t i = 0; i < count; ++i) {
        CHECK_EQ(part[i], cur[first + i]);
      }
    }
  }
  obj.ll(0, mine.data());
  CHECK(mine == cur);
  CHECK(obj.try_read(0, 0, w, part.data()));  // the linked pid's own read
  CHECK(part == cur);
  CHECK(obj.try_read(1, w - 1, 1, part.data()));
  CHECK(obj.vl(0));
  fill(cur, 99);
  CHECK(obj.sc(0, cur.data()));
  CHECK(obj.try_read(0, 0, w, part.data()));
  CHECK(part == cur);
  CHECK(refuses([&] { obj.try_read(0, 0, 0, part.data()); }));
  CHECK(refuses([&] { obj.try_read(0, 0, w + 1, part.data()); }));
  CHECK(refuses([&] { obj.try_read(0, w, 1, part.data()); }));
  CHECK(refuses([&] { obj.try_read(0, 1, ~0u, part.data()); }));  // wraps
}

void semantics_for(const core::MwLLSCFactory& f, std::uint32_t w) {
  std::printf("  %s W=%u\n", f.name.c_str(), w);
  auto obj = f.make(3, w);
  CHECK_EQ(obj->words(), w);

  std::vector<std::uint64_t> a(w), b(w), c(w);

  // Fresh object reads all zeros.
  obj->ll(0, a.data());
  for (auto v : a) CHECK_EQ(v, 0u);

  // VL holds until an SC intervenes, and is repeatable.
  CHECK(obj->vl(0));
  CHECK(obj->vl(0));

  // Round trip of a distinct pattern across every word.
  fill(a, 1);
  CHECK(obj->sc(0, a.data()));
  obj->ll(1, b.data());
  CHECK(b == a);

  // The link is consumed by SC: VL false, second SC fails.
  CHECK(!obj->vl(0));
  CHECK(!obj->sc(0, a.data()));

  // SC fails after an intervening successful SC.
  obj->ll(0, b.data());
  obj->ll(2, c.data());
  fill(c, 2);
  CHECK(obj->sc(2, c.data()));
  CHECK(!obj->vl(0));
  fill(b, 3);
  CHECK(!obj->sc(0, b.data()));
  obj->ll(0, b.data());
  CHECK(b == c);

  // SC/VL with no LL at all fail.
  auto fresh = f.make(2, 2);
  std::uint64_t two[2] = {1, 2};
  CHECK(!fresh->sc(0, two));
  CHECK(!fresh->vl(0));

  // A failed SC still leaves the object intact and re-LL-able.
  obj->ll(0, b.data());
  CHECK(b == c);
  CHECK(obj->vl(0));
  fill(b, 4);
  CHECK(obj->sc(0, b.data()));
  obj->ll(1, a.data());
  CHECK(a == b);

  // Enough successive versions to cycle every buffer row the object owns
  // (jp: N+R+1 = 8 at N=3), each read back whole by another process.
  for (std::uint64_t salt = 5; salt < 5 + 24; ++salt) {
    const std::uint32_t p = static_cast<std::uint32_t>(salt % 3);
    obj->ll(p, b.data());
    CHECK(b == a);
    fill(a, salt);
    CHECK(obj->sc(p, a.data()));
    obj->ll((p + 1) % 3, c.data());
    CHECK(c == a);
  }

  try_read_for(*obj, w, a);

  // Counter sanity: sc_success <= sc_ops <= ll-ish totals, all populated.
  const auto s = obj->stats();
  CHECK(s.ll_ops >= 5);
  CHECK(s.sc_ops >= 5);
  CHECK(s.sc_success >= 3);
  CHECK(s.sc_success <= s.sc_ops);
  CHECK(s.vl_ops >= 4);

  // Footprint: parts sum to the total, the shared/per-process ownership
  // split is structural (no name matching), and private state is reported.
  const auto fp = obj->footprint();
  std::size_t sum = 0;
  std::size_t private_bytes = 0;
  for (const auto& part : fp.parts()) {
    sum += part.bytes;
    if (part.ownership == util::Footprint::Ownership::kPerProcess) {
      private_bytes += part.bytes;
    }
  }
  CHECK_EQ(sum, fp.total_bytes());
  CHECK_EQ(fp.shared_bytes() + private_bytes, fp.total_bytes());
  CHECK(private_bytes > 0);
  CHECK(fp.shared_bytes() > 0);
}

// W = 1 degenerate geometry and N = 1 solo process must also work.
void degenerate_for(const core::MwLLSCFactory& f) {
  auto solo = f.make(1, 1);
  std::uint64_t v = 0;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    solo->ll(0, &v);
    CHECK_EQ(v, i - 1);
    v = i;
    CHECK(solo->sc(0, &v));
  }
  solo->ll(0, &v);
  CHECK_EQ(v, 100u);
}

// Constructor preconditions hold in Release too: each is refused with
// std::invalid_argument instead of building an object whose buffer
// indices overflow their 18-bit fields or that copies zero words.
void preconditions() {
  using Jp = core::MwLLSC<llsc::Dw128LLSC>;
  constexpr std::uint32_t kMax = core::kMaxProcs;
  CHECK(refuses([] { Jp obj(0, 4); }));
  CHECK(refuses([] { Jp obj(kMax + 1, 4); }));
  CHECK(refuses([] { Jp obj(~0u, 4); }));
  CHECK(refuses([] { Jp obj(2, 0); }));
  // The bounds themselves are accepted.
  CHECK(!refuses([] { Jp obj(1, 1); }));
  CHECK(!refuses([] { Jp obj(kMax, 1); }));
  // The baselines refuse the same way. LockLLSC swings no buffer index,
  // so only the others cap nprocs. AmLLSC's accepted cap is not built
  // here: its O(N^2 W) handoff matrix at 2^14 processes is gigabytes; the
  // refusal throws before any member allocates.
  for (const auto& f : bench::all_factories()) {
    CHECK(refuses([&] { f.make(0, 4); }));
    CHECK(refuses([&] { f.make(2, 0); }));
    CHECK(!refuses([&] { f.make(1, 1); }));
  }
  using Retry = baseline::RetryLLSC<llsc::Dw128LLSC>;
  CHECK(refuses([] { Retry obj(kMax + 1, 4); }));
  CHECK(!refuses([] { Retry obj(kMax, 1); }));
  using Am = baseline::AmLLSC<llsc::Dw128LLSC>;
  CHECK(refuses([] { Am obj(kMax + 1, 4); }));
}

// An implementation without try_read (a decorator that does not forward
// it) adapts with the facade's default: the range check, then false.
struct LlOnly {
  LlOnly(std::uint32_t n, std::uint32_t w) : impl(n, w) {}
  void ll(std::uint32_t p, std::uint64_t* out) { impl.ll(p, out); }
  bool sc(std::uint32_t p, const std::uint64_t* in) { return impl.sc(p, in); }
  bool vl(std::uint32_t p) { return impl.vl(p); }
  std::uint32_t words() const { return impl.words(); }
  core::OpStatsSnapshot stats() const { return impl.stats(); }
  util::Footprint footprint() const { return impl.footprint(); }
  void set_trace(obs::TraceSink* sink, std::uint32_t var) {
    impl.set_trace(sink, var);
  }
  core::MwLLSC<llsc::Dw128LLSC> impl;
};

void facade_default() {
  core::MwLLSCAdapter<LlOnly> obj(2, 4);
  std::uint64_t v[4] = {};
  CHECK(!obj.try_read(0, 0, 4, v));
  CHECK(refuses([&] { obj.try_read(0, 0, 5, v); }));
}

}  // namespace

int main() {
  std::printf("test_core_semantics:\n");
  preconditions();
  facade_default();
  for (const auto& f : bench::all_factories()) {
    for (std::uint32_t w : kWidths) semantics_for(f, w);
    degenerate_for(f);
  }
  std::printf("test_core_semantics: OK\n");
  return 0;
}
