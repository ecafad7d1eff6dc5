// Space-complexity shape checks (Theorem 1 / experiment E1): the paper's
// algorithm is O(NW) shared words while the Anderson–Moir-style baseline is
// O(N^2 W), so doubling N should roughly double jp and roughly quadruple
// am. Fitted log-log exponents make the asymptotics explicit. jp's shared
// bytes are also pinned exactly, in closed form.
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "test_check.hpp"

using namespace mwllsc;

namespace {

std::size_t shared_bytes(core::IMwLLSC& obj) {
  return obj.footprint().shared_bytes();
}

// jp allocates N+R+1 value rows (R = max(2, P), P = N rounded up to a
// power of two), each W words rounded up to whole 64-byte lines, plus 64
// bytes of alignment slack; X takes one line, and the R ring words and N
// announce words pack eight to a line, in whole lines. N = 9, 16 and 17
// make both word arrays span more than one line. The census counts the
// rows the object actually owns, so a smaller footprint must come from
// allocating fewer rows, not from accounting for fewer.
void jp_closed_form() {
  using Jp = core::MwLLSC<llsc::Dw128LLSC>;
  const std::uint32_t w = 12;  // two lines per row
  const auto lines = [](std::uint32_t words) {
    return std::size_t{64} * ((words + 7) / 8);
  };
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u}) {
    std::uint32_t p2 = 1;
    while (p2 < n) p2 <<= 1;
    const std::uint32_t r = p2 < 2 ? 2 : p2;
    Jp obj(n, w);
    Jp::Census c;
    obj.census(c);
    CHECK_EQ(c.buffers, n + r + 1);
    const std::size_t rows = std::size_t{n + r + 1} * 2 * 64 + 64;
    CHECK_EQ(obj.footprint().shared_bytes(), 64 + rows + lines(r) + lines(n));
  }
}

}  // namespace

int main() {
  jp_closed_form();
  const std::uint32_t w = 16;
  const std::vector<std::uint32_t> ns = {4, 8, 16, 32, 64};
  std::vector<double> xs, jp, am, retry;
  for (std::uint32_t n : ns) {
    auto j = bench::factory_by_name("jp").make(n, w);
    auto a = bench::factory_by_name("am").make(n, w);
    auto r = bench::factory_by_name("retry").make(n, w);
    xs.push_back(n);
    jp.push_back(static_cast<double>(shared_bytes(*j)));
    am.push_back(static_cast<double>(shared_bytes(*a)));
    retry.push_back(static_cast<double>(shared_bytes(*r)));
  }

  const double jp_exp = util::fitted_exponent(xs, jp);
  const double am_exp = util::fitted_exponent(xs, am);
  const double rt_exp = util::fitted_exponent(xs, retry);
  std::printf("test_footprint: fitted exponents jp=N^%.2f am=N^%.2f "
              "retry=N^%.2f\n", jp_exp, am_exp, rt_exp);

  // jp and retry are linear in N, am quadratic (generous brackets).
  CHECK(jp_exp > 0.7 && jp_exp < 1.3);
  CHECK(rt_exp > 0.7 && rt_exp < 1.3);
  CHECK(am_exp > 1.6 && am_exp < 2.4);

  // At equal geometry am pays a factor ~Theta(N) more shared space than
  // jp. The divisor absorbs jp's constant (N+R+1 line-padded buffers plus
  // the ring); the fitted exponents above carry the asymptotic claim.
  const double ratio = am.back() / jp.back();
  CHECK(ratio > static_cast<double>(ns.back()) / 8);

  // Growing W grows jp linearly too (O(NW)).
  auto j16 = bench::factory_by_name("jp").make(16, 16);
  auto j64 = bench::factory_by_name("jp").make(16, 64);
  const double wratio = static_cast<double>(shared_bytes(*j64)) /
                        static_cast<double>(shared_bytes(*j16));
  CHECK(wratio > 2.5 && wratio < 4.5);

  // Buffer rows are padded to cache-line multiples (the false-sharing
  // fix), and footprint() reports the real padded size: any W within the
  // same 8-word stride costs the same, and crossing the stride grows it.
  auto j5 = bench::factory_by_name("jp").make(8, 5);
  auto j8 = bench::factory_by_name("jp").make(8, 8);
  auto j9 = bench::factory_by_name("jp").make(8, 9);
  CHECK_EQ(shared_bytes(*j5), shared_bytes(*j8));
  CHECK(shared_bytes(*j9) > shared_bytes(*j8));

  std::printf("test_footprint: OK\n");
  return 0;
}
