// mwllsc-lint reporting: the human findings, one per line with its
// snippet and hint, and a one-line summary (all that --quiet prints).
#pragma once

#include <cstdio>

#include "lint/rules.hpp"

namespace mwllsc::lint {

inline void print_findings(const LintResult& r, std::FILE* out) {
  for (const Finding& f : r.findings) {
    std::fprintf(out, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
    if (!f.snippet.empty()) {
      std::fprintf(out, "    > %s\n", f.snippet.c_str());
    }
    if (!f.hint.empty()) {
      std::fprintf(out, "    hint: %s\n", f.hint.c_str());
    }
  }
}

inline void print_summary(const LintResult& r, std::FILE* out) {
  std::fprintf(out,
               "mwllsc_lint: %zu finding%s in %d file%s (%d suppressed)\n",
               r.findings.size(), r.findings.size() == 1 ? "" : "s",
               r.files, r.files == 1 ? "" : "s", r.suppressed);
}

}  // namespace mwllsc::lint
