// test_lint: the ctest gate on the memory-ordering discipline
// (DESIGN.md §9). Three layers:
//   1. the fixture corpus under tests/lint_fixtures/ — each bad_*.hpp
//      seeds exactly one violation of one rule, suppressed.hpp exercises
//      the suppression annotation;
//   2. the clean gate — the real include/, bench/ and tools/ trees (.hpp
//      and .cpp, as CI's static-analysis gate lints them) must produce
//      zero findings, so every seq_cst site keeps its contract forever;
//   3. annotation-window and declaration edge cases fed via scan_source;
//   4. the mwllsc_lint binary's --quiet output: the summary line alone.
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/model.hpp"
#include "lint/report.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"
#include "test_check.hpp"

namespace fs = std::filesystem;
using namespace mwllsc::lint;

namespace {

#ifndef MWLLSC_LINT_FIXTURE_DIR
#error "tests/CMakeLists.txt must define MWLLSC_LINT_FIXTURE_DIR"
#endif
#ifndef MWLLSC_LINT_REPO_DIR
#error "tests/CMakeLists.txt must define MWLLSC_LINT_REPO_DIR"
#endif
#ifndef MWLLSC_LINT_BIN
#error "tests/CMakeLists.txt must define MWLLSC_LINT_BIN"
#endif

LintResult lint_path(const std::string& path) {
  LintResult r;
  SourceFile src = load_file(path);
  CHECK(src.ok);
  FileModel m = build_model(std::move(src));
  run_rules(m, &r);
  return r;
}

LintResult lint_text(const std::string& text) {
  LintResult r;
  FileModel m = build_model(scan_source("mem.hpp", text));
  run_rules(m, &r);
  return r;
}

void expect_single(const char* file, const char* rule) {
  const LintResult r =
      lint_path(std::string(MWLLSC_LINT_FIXTURE_DIR) + "/" + file);
  if (r.findings.size() != 1 ||
      r.findings[0].rule != rule) {
    std::fprintf(stderr, "fixture %s: want exactly one %s, got:\n", file,
                 rule);
    print_findings(r, stderr);
    std::abort();
  }
  CHECK_EQ(r.suppressed, 0);
}

void test_fixture_corpus() {
  expect_single("bad_r1.hpp", "R1");
  expect_single("bad_r2.hpp", "R2");
  expect_single("obs/bad_r3.hpp", "R3");
  expect_single("bad_r4.hpp", "R4");
  expect_single("bad_r5.hpp", "R5");
  expect_single("bad_r5_slot.hpp", "R5");

  // The suppressed fixture has a real R1 under a suppression annotation:
  // zero findings, and the suppression is accounted for.
  const LintResult r =
      lint_path(std::string(MWLLSC_LINT_FIXTURE_DIR) + "/suppressed.hpp");
  CHECK(r.findings.empty());
  CHECK_EQ(r.suppressed, 1);
}

// The whole point of the gate: the shipped sources stay clean, so any new
// unargued seq_cst (or unpadded shared atomic, or defaulted order) fails
// ctest, not just CI. It walks the same trees and extensions as CI's
// `mwllsc_lint include bench tools`.
void test_source_trees_clean() {
  std::vector<std::string> files;
  for (const char* tree : {"include", "bench", "tools"}) {
    const std::string root = std::string(MWLLSC_LINT_REPO_DIR) + "/" + tree;
    std::size_t found = 0;
    for (fs::recursive_directory_iterator it(root), end; it != end; ++it) {
      const std::string ext = it->path().extension().string();
      if (it->is_regular_file() && (ext == ".hpp" || ext == ".cpp")) {
        files.push_back(it->path().generic_string());
        ++found;
      }
    }
    CHECK(found >= 2);  // the tree is really there
  }
  CHECK(files.size() >= 40);

  LintResult all;
  for (const std::string& f : files) {
    SourceFile src = load_file(f);
    CHECK(src.ok);
    FileModel m = build_model(std::move(src));
    run_rules(m, &all);
  }
  if (!all.findings.empty()) {
    std::fprintf(stderr, "include/ bench/ tools/ must lint clean at HEAD:\n");
    print_findings(all, stderr);
    std::abort();
  }
  CHECK_EQ(all.files, static_cast<int>(files.size()));
}

void test_annotation_window() {
  // A contract on the line just above binds...
  const char* near_contract =
      "struct alignas(64) S {\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-ordering: seq_cst(window check)\n"
      "    a.store(1, std::memory_order_seq_cst);\n"
      "  }\n"
      "};\n";
  CHECK(lint_text(near_contract).findings.empty());

  // ...kAnnotationWindow lines above still binds...
  const char* boundary =
      "struct alignas(64) S {\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-ordering: seq_cst(exactly kAnnotationWindow away)\n"
      "    int x = 0;\n"
      "    int y = 1;\n"
      "    a.store(x + y, std::memory_order_seq_cst);\n"
      "  }\n"
      "};\n";
  CHECK(lint_text(boundary).findings.empty());

  // ...but one line further is out of range: the access loses its
  // contract AND the contract goes stale — two findings, both R2.
  const char* too_far =
      "struct alignas(64) S {\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-ordering: seq_cst(one line too far)\n"
      "    int x = 0;\n"
      "    int y = 1;\n"
      "    int z = 2;\n"
      "    a.store(x + y + z, std::memory_order_seq_cst);\n"
      "  }\n"
      "};\n";
  const LintResult far = lint_text(too_far);
  CHECK_EQ(far.findings.size(), 2u);
  CHECK(far.findings[0].rule == "R2");
  CHECK(far.findings[1].rule == "R2");
}

void test_suppress_multiple_rules() {
  const char* multi =
      "struct S {\n"
      "  // mwllsc-lint-suppress(R1, R5: fixture, both rules at once)\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-lint-suppress(R1: and the access too)\n"
      "    a.fetch_add(1);\n"
      "  }\n"
      "};\n";
  const LintResult r = lint_text(multi);
  CHECK(r.findings.empty());
  CHECK_EQ(r.suppressed, 2);
}

// An operator returning a reference to an atomic is a function, not an
// unpadded field named `operator` (R5 used to fire on it); a real
// unpadded field in the same class is still flagged.
void test_operator_is_not_a_field() {
  const std::string words =
      "struct Words {\n"
      "  std::atomic<std::uint64_t>& operator[](std::uint32_t i) const {\n"
      "    return w_[i];\n"
      "  }\n"
      "  std::atomic<std::uint64_t>* w_;\n";
  CHECK(lint_text(words + "};\n").findings.empty());

  const LintResult r =
      lint_text(words + "  std::atomic<std::uint64_t> hot{0};\n};\n");
  CHECK_EQ(r.findings.size(), 1u);
  CHECK(r.findings[0].rule == "R5");
  CHECK_EQ(r.findings[0].line, 6);
  CHECK(r.findings[0].message.find("'hot'") != std::string::npos);
}

// `mwllsc_lint --quiet` drops the findings but keeps the one summary line
// and the exit code: 1 on a finding.
void test_quiet_prints_summary_only() {
  const std::string cmd = std::string("'") + MWLLSC_LINT_BIN +
                          "' --quiet '" + MWLLSC_LINT_FIXTURE_DIR +
                          "/bad_r1.hpp'";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  CHECK(pipe != nullptr);
  std::string out;
  char chunk[256];
  while (std::fgets(chunk, sizeof chunk, pipe)) out += chunk;
  const int status = pclose(pipe);
  if (out != "mwllsc_lint: 1 finding in 1 file (0 suppressed)\n") {
    std::fprintf(stderr, "mwllsc_lint --quiet printed:\n%s<end>\n",
                 out.c_str());
    std::abort();
  }
  CHECK(WIFEXITED(status));
  CHECK_EQ(WEXITSTATUS(status), 1);
}

}  // namespace

int main() {
  test_fixture_corpus();
  test_source_trees_clean();
  test_annotation_window();
  test_suppress_multiple_rules();
  test_operator_is_not_a_field();
  test_quiet_prints_summary_only();
  std::printf("test_lint: all checks passed\n");
  return 0;
}
