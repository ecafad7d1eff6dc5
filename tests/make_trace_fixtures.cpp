// Writes trace_check's fixtures as DIR/<name>.trace, built through the
// current write_trace so a format version bump cannot leave them stale:
// a valid dump, a whole dump with no LL window, and one file per loader
// refusal — empty, cut inside the header, cut inside an event, random
// bytes, a bad magic word, an unknown version, trailing bytes, an event
// kind >= kCount, an event under another pid's stream. It runs as the
// FIXTURES_SETUP step of the trace_check_* ctest cases and fails unless
// load_trace refuses each bad file with its own message, so a WILL_FAIL
// case cannot pass for another reason (a missing file, say).
//
// Usage: make_trace_fixtures DIR
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>

#include "obs/export.hpp"

using namespace mwllsc::obs;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  return static_cast<bool>(out.write(bytes.data(), bytes.size()).flush());
}

/// One jp variable (W=2), three LL/SC pairs on pid 0.
TraceData small_trace() {
  TraceData d;
  d.vars.push_back({0, 2, "jp"});
  d.per_pid.resize(1);
  d.dropped.assign(1, 0);
  d.tsc0 = 1000;
  d.ns_per_tick = 0.5;
  auto push = [&d](EventKind k, std::uint64_t tag, std::uint32_t arg) {
    TraceEvent e;
    e.tsc = d.tsc0 + 40 * (d.per_pid[0].size() + 1);
    e.tag = tag;
    e.arg = arg;
    e.kind = static_cast<std::uint16_t>(k);
    d.per_pid[0].push_back(e);
  };
  for (std::uint64_t t = 0; t < 3; ++t) {
    push(EventKind::kLlStart, 0, 0);
    push(EventKind::kLlFast, t, 0);
    push(EventKind::kScAttempt, 0, 1);
    push(EventKind::kScCommit, t + 1, 0);
    push(EventKind::kBankWrite, t + 1, 0);
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s DIR\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string tmp = dir + "/check.tmp";
  auto dump = [&](const TraceData& d) {
    write_trace(tmp, d);
    return read_file(tmp);
  };

  const TraceData good = small_trace();
  const std::string valid = dump(good);
  TraceData no_lls = good, bad_kind = good, bad_pid = good;
  no_lls.per_pid[0].clear();
  bad_kind.per_pid[0][1].kind = static_cast<std::uint16_t>(EventKind::kCount);
  bad_pid.per_pid[0][1].pid = 1;
  std::string bad_magic = valid, bad_version = valid;
  bad_magic[0] ^= 0x20;
  const std::uint32_t next = kTraceFormatVersion + 1;  // after the magic
  bad_version.replace(sizeof(kTraceMagic), sizeof(next),
                      reinterpret_cast<const char*>(&next), sizeof(next));
  std::string random(256, '\0');
  std::mt19937_64 rng(17);
  for (char& c : random) c = static_cast<char>(rng());

  // Per ctest case trace_check_{accepts,rejects}_<name>: the bytes, and a
  // substring of load_trace's refusal ("": the file loads).
  const struct {
    std::string name, bytes, refusal;
  } all[] = {
      {"valid", valid, ""},
      {"no_lls", dump(no_lls), ""},  // loads; trace_check finds it vacuous
      {"empty", "", "empty"},
      {"truncated_header", valid.substr(0, 16), "truncated"},
      {"truncated", valid.substr(0, valid.size() - 16), "truncated"},
      {"random", random, "bad magic"},
      {"bad_magic", bad_magic, "bad magic"},
      {"bad_version", bad_version, "unknown format version"},
      {"trailing", valid + std::string(8, '\0'), "trailing bytes"},
      {"bad_kind", dump(bad_kind), ">= kCount"},
      {"bad_pid", dump(bad_pid), "recorded under pid"},
  };
  std::remove(tmp.c_str());
  for (const auto& fx : all) {
    const std::string path = dir + "/" + fx.name + ".trace";
    TraceData d;
    std::string err;
    const bool loaded = write_file(path, fx.bytes) && load_trace(path, &d, &err);
    if (loaded != fx.refusal.empty() ||
        err.find(fx.refusal) == std::string::npos ||
        (fx.name == "valid" && !(d == good))) {
      std::fprintf(stderr, "fixture %s: expected %s, got %s\n",
                   fx.name.c_str(),
                   fx.refusal.empty() ? "a load" : fx.refusal.c_str(),
                   loaded ? "a load" : err.c_str());
      return 1;
    }
  }
  std::printf("wrote %zu trace fixtures to %s\n", std::size(all),
              dir.c_str());
  return 0;
}
