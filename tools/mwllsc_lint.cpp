// mwllsc_lint — the repo's memory-ordering discipline, mechanically
// checked (DESIGN.md §9). Tokenizes the given headers/sources, models
// every std::atomic declaration and access site, and enforces rules
// R1–R5. Exits 0 when clean, 1 on findings, 2 on usage/IO errors — the
// `lint` CMake target and the static-analysis CI job gate on that.
//
//   mwllsc_lint [--quiet] [--rules] <file-or-dir>...
//
//   --quiet   suppress the human findings (summary + exit code only)
//   --rules   print the ruleset and exit

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/model.hpp"
#include "lint/report.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace fs = std::filesystem;

namespace {

const char kRules[] =
    "mwllsc_lint ruleset (DESIGN.md §9):\n"
    "  R1  every atomic access names an explicit std::memory_order\n"
    "      (no defaulted seq_cst, no ++/--/=/+= operator sugar)\n"
    "  R2  seq_cst only under an in-source ordering contract\n"
    "      \"mwllsc-ordering: seq_cst(<reason>)\"; stale contracts are\n"
    "      findings too\n"
    "  R3  obs/ trace-ring head/slot stores are relaxed only\n"
    "      (single-writer rings; readers synchronize via join)\n"
    "  R4  no volatile, __sync_*/__atomic_* builtins, or inline asm\n"
    "  R5  shared atomic fields are cache-line padded (alignas on the\n"
    "      field or enclosing struct) or \"mwllsc-pad: exempt(<reason>)\"\n"
    "suppress a finding with \"mwllsc-lint-suppress(Rn: <reason>)\" on or\n"
    "just above its line\n";

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".cpp" ||
         ext == ".cc" || ext == ".cxx";
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--rules") {
      std::fputs(kRules, stdout);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stdout,
                   "usage: mwllsc_lint [--quiet] [--rules] "
                   "<file-or-dir>...\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mwllsc_lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: mwllsc_lint [--quiet] [--rules] <file-or-dir>...\n");
    return 2;
  }

  // Expand directories; sort for deterministic output across platforms.
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec) {
        std::fprintf(stderr, "mwllsc_lint: cannot walk %s: %s\n",
                     root.c_str(), ec.message().c_str());
        return 2;
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "mwllsc_lint: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  mwllsc::lint::LintResult result;
  for (const std::string& path : files) {
    mwllsc::lint::SourceFile src = mwllsc::lint::load_file(path);
    if (!src.ok) {
      std::fprintf(stderr, "mwllsc_lint: %s\n", src.error.c_str());
      return 2;
    }
    mwllsc::lint::FileModel model =
        mwllsc::lint::build_model(std::move(src));
    mwllsc::lint::run_rules(model, &result);
  }

  if (!quiet) {
    mwllsc::lint::print_findings(result, stdout);
  }
  return result.findings.empty() ? 0 : 1;
}
