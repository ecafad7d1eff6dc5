// Single-word LL/SC engine semantics: round-trips, semantic SC failure
// (fails iff a successful SC intervened), VL, link consumption, ABA, the
// per-SC tag count, and full 64-bit values.
#include <cstdint>

#include "core/llsc.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

using Engine = llsc::Dw128LLSC;

void engine_semantics() {
  Engine x(3, 7);
  CHECK_EQ(x.peek(), 7u);

  // Round trip: LL then SC with no interference succeeds.
  CHECK_EQ(x.ll(0), 7u);
  CHECK(x.vl(0));
  CHECK(x.sc(0, 11));
  CHECK_EQ(x.peek(), 11u);

  // The link was consumed by the SC: VL and a second SC fail until re-LL.
  CHECK(!x.vl(0));
  CHECK(!x.sc(0, 12));
  CHECK_EQ(x.peek(), 11u);

  // Semantic failure: p1 links, p2's SC intervenes, p1's SC must fail.
  CHECK_EQ(x.ll(1), 11u);
  CHECK_EQ(x.ll(2), 11u);
  CHECK(x.sc(2, 21));
  CHECK(!x.vl(1));
  CHECK(!x.sc(1, 22));
  CHECK_EQ(x.peek(), 21u);

  // ABA at the value level is defeated by the tag: restore the old value
  // via two SCs; a stale link must still fail.
  CHECK_EQ(x.ll(0), 21u);
  CHECK_EQ(x.ll(1), 21u);
  CHECK(x.sc(1, 5));
  CHECK_EQ(x.ll(1), 5u);
  CHECK(x.sc(1, 21));  // value back to 21, but the tag moved twice
  CHECK_EQ(x.peek(), 21u);
  CHECK(!x.vl(0));
  CHECK(!x.sc(0, 99));

  // SC without any LL fails.
  Engine y(2, 0);
  CHECK(!y.sc(0, 1));
  CHECK(!y.vl(0));

  // Tags advance once per successful SC.
  Engine z(1, 0);
  CHECK_EQ(z.current_tag(), 0u);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    z.ll(0);
    CHECK_EQ(z.linked_tag(0), i - 1);
    CHECK(z.sc(0, i));
    CHECK_EQ(z.current_tag(), i);
  }

  // Space accounting exposes both shared and private parts.
  CHECK(x.shared_bytes() > 0);
  CHECK(x.private_bytes() > 0);
}

// Every 64-bit value round-trips through ll/sc/peek; the tag lives in the
// other half of the CAS word and never bleeds into the value.
void full_width_values() {
  const std::uint64_t values[] = {std::uint64_t{1} << 63, ~std::uint64_t{0} - 1,
                                  ~std::uint64_t{0}, 0};
  Engine x(2, values[0]);
  CHECK_EQ(x.peek(), values[0]);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t next = values[(i + 1) % 4];
    CHECK_EQ(x.ll(0), values[i]);
    CHECK(x.sc(0, next));
    CHECK_EQ(x.peek(), next);
    CHECK_EQ(x.ll(1), next);
    CHECK(x.vl(1));
    CHECK_EQ(x.current_tag(), i + 1);
  }
}

}  // namespace

int main() {
  engine_semantics();
  full_width_values();
  std::printf("test_llsc_engine: OK\n");
  return 0;
}
