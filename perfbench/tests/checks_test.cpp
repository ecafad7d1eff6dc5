// Self-test of the perfbench output checkers: for each checker, a correct
// result must pass, and the same result with a seeded corruption must be
// caught. Exits nonzero on the first checker that misses.
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "checks.hpp"
#include "util/rng.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool caught, bool want, const char* what, std::uint64_t seed) {
  if (caught != want) {
    std::fprintf(stderr, "FAIL: %s (seed %llu): checker %s\n", what,
                 static_cast<unsigned long long>(seed),
                 want ? "missed a wrong result" : "rejected a correct one");
    ++g_failures;
  }
}

void scans(std::uint64_t seed) {
  mwllsc::util::Xoshiro256 rng(seed);
  const Stamp s(seed);
  const std::uint32_t n = 64;
  std::vector<std::uint64_t> w(n, s.word(10));
  {
    std::uint64_t last = 7;
    Verdict v;
    expect(!check_scan(w.data(), n, s, last, v) || !v.ok(), false,
           "untorn scan", seed);
    expect(last != 10, false, "scan decodes its version", seed);
  }
  {  // torn: one seeded word from a neighbouring version
    auto torn = w;
    torn[1 + rng.next_below(n - 1)] = s.word(11);
    std::uint64_t last = 0;
    Verdict v;
    check_scan(torn.data(), n, s, last, v);
    expect(!v.ok(), true, "torn scan", seed);
  }
  {  // a scanner going back in time
    std::uint64_t last = 10 + 1 + rng.next_below(5);
    Verdict v;
    check_scan(w.data(), n, s, last, v);
    expect(!v.ok(), true, "decreasing version", seed);
  }
}

void counters(std::uint64_t seed) {
  mwllsc::util::Xoshiro256 rng(seed);
  std::array<std::uint64_t, 4> base{}, words{};
  const std::uint64_t committed = rng.next_below(1000000);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = rng.next();
    words[i] = base[i] + committed;
  }
  Verdict ok;
  check_counter(words.data(), base.data(), 4, committed, ok);
  expect(!ok.ok(), false, "counter final value", seed);

  auto lost = words;  // a lost update in one seeded word
  lost[rng.next_below(4)] -= 1;
  Verdict v;
  check_counter(lost.data(), base.data(), 4, committed, v);
  expect(!v.ok(), true, "lost counter update", seed);

  auto swapped = words;  // words exchanged between positions
  swapped[0] = words[1];
  swapped[1] = words[0];
  Verdict v2;
  check_counter(swapped.data(), base.data(), 4, committed, v2);
  expect(!v2.ok() || base[0] == base[1], true, "permuted counter words",
         seed);
}

void stats(std::uint64_t seed) {
  mwllsc::util::Xoshiro256 rng(seed);
  mwllsc::core::OpStatsSnapshot s;
  s.sc_success = s.bank_writes = 1 + rng.next_below(1000);
  Verdict ok;
  check_jp_stats(s, ok);
  expect(!ok.ok(), false, "jp stats", seed);

  auto retried = s;
  retried.ll_retries = 1 + rng.next_below(3);
  Verdict v;
  check_jp_stats(retried, v);
  expect(!v.ok(), true, "LL retry fired", seed);

  auto i2 = s;
  i2.bank_writes += rng.chance(1, 2) ? 1 : -1;
  Verdict v2;
  check_jp_stats(i2, v2);
  expect(!v2.ok(), true, "bank writes != successful SCs", seed);
}

void queue(std::uint64_t seed) {
  mwllsc::util::Xoshiro256 rng(seed);
  const QueueCodec c(seed);
  const unsigned p = rng.next_below(kThreads);
  {
    std::array<std::uint64_t, kThreads> last{};
    Verdict v;
    check_dequeue(c.encode(p, 1), c, last, v);
    check_dequeue(c.encode(p, 2), c, last, v);
    expect(!v.ok(), false, "in-order dequeues", seed);
    check_dequeue(c.encode(p, 2), c, last, v);
    expect(!v.ok(), true, "duplicate dequeue", seed);
  }
  {
    std::array<std::uint64_t, kThreads> last{};
    Verdict v;
    check_dequeue(c.encode(p, 5), c, last, v);
    check_dequeue(c.encode(p, 3), c, last, v);
    expect(!v.ok(), true, "producer order reversed", seed);
  }
  {
    std::array<std::uint64_t, kThreads> last{};
    Verdict v;
    check_dequeue(~std::uint64_t{0}, c, last, v);
    expect(!v.ok(), true, "empty dequeue", seed);
  }
  {
    std::array<std::uint64_t, kThreads> last{};
    Verdict v;  // a value whose key byte is not the producer's
    check_dequeue(c.encode(p, 1) ^ (std::uint64_t{1 + rng.next_below(255)} << 48),
                  c, last, v);
    expect(!v.ok(), true, "forged value", seed);
  }
  QueueTotals t;
  t.enq_count = t.deq_count = 1 + rng.next_below(1000);
  t.enq_sum = t.deq_sum = rng.next();
  Verdict ok;
  check_queue_totals(t, 3, 3, ok);
  expect(!ok.ok(), false, "queue totals", seed);
  auto lost = t;
  lost.deq_count -= 1;
  lost.deq_sum -= c.encode(p, 1);
  Verdict v;
  check_queue_totals(lost, 3, 3, v);
  expect(!v.ok(), true, "lost queue value", seed);
  auto corrupt = t;
  corrupt.deq_sum ^= std::uint64_t{1} << rng.next_below(64);
  Verdict v2;
  check_queue_totals(corrupt, 3, 3, v2);
  expect(!v2.ok(), true, "queue checksum", seed);
  Verdict v3;
  check_queue_totals(t, 4 + rng.next_below(4), 3, v3);
  expect(!v3.ok(), true, "apply round bound", seed);
}

void membership(std::uint64_t seed) {
  mwllsc::util::Xoshiro256 rng(seed);
  mwllsc::membership::MembershipSnapshot m;
  m.joins = rng.next_below(1000);
  m.degraded_joins = rng.next_below(1000);
  m.crash_reclaims = rng.next_below(100);
  const std::uint64_t leases = m.joins + m.degraded_joins;
  Verdict ok;
  check_membership(m, leases, m.crash_reclaims, ok);
  expect(!ok.ok(), false, "membership bookkeeping", seed);
  Verdict v;
  check_membership(m, leases + 1, m.crash_reclaims, v);
  expect(!v.ok(), true, "a lease without a join", seed);
  Verdict v2;
  check_membership(m, leases, m.crash_reclaims + 1, v2);
  expect(!v2.ok(), true, "an abandoned slot never reclaimed", seed);
}

}  // namespace

int main() {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    scans(seed);
    counters(seed);
    stats(seed);
    queue(seed);
    membership(seed);
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "%d checker self-test failures\n", g_failures);
    return 1;
  }
  std::printf("perfbench checkers: all seeded wrong results caught\n");
  return 0;
}
