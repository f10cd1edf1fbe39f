// fvae_lint — project-invariant linter, run as a ctest gate on every build.
//
//   usage: fvae_lint [repo_root] [--budget-ms N] [--json FILE]
//
// Walks src/, tools/, bench/, tests/ and examples/, applies the rules in
// tools/lint_rules.h, prints every finding as "path:line: [rule] message"
// and exits non-zero if the tree is not clean. A per-analysis wall-clock
// breakdown always follows the verdict, so the analyzer's own cost stays
// visible as the tree grows; with --budget-ms the run additionally fails
// when the total exceeds the budget (the ctest passes 5000 on
// non-sanitizer builds). With --json FILE a machine-readable report
// (verdict, findings with source excerpts, the timing breakdown) is
// written whether or not the tree is clean — CI uploads it as an
// artifact when the lint step fails. An unknown flag, a flag without its
// value, or a budget that is not a positive number exits 2 with the usage
// line. See ARCHITECTURE.md ("Static analysis & sanitizers") for the rule
// list and rationale.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "tools/lint_rules.h"

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The offending source line, whitespace-trimmed, for the JSON report's
/// path excerpt. Empty string when the file or line cannot be read.
std::string LineExcerpt(const std::filesystem::path& root,
                        const std::string& file, size_t line) {
  std::ifstream in(root / file);
  std::string text;
  for (size_t i = 0; i < line && std::getline(in, text); ++i) {
  }
  if (!in && text.empty()) return "";
  size_t b = text.find_first_not_of(" \t");
  size_t e = text.find_last_not_of(" \t\r");
  if (b == std::string::npos) return "";
  return text.substr(b, e - b + 1);
}

void WriteJsonReport(const std::filesystem::path& out_path,
                     const std::filesystem::path& root,
                     const std::vector<fvae::lint::Finding>& findings,
                     const fvae::lint::LintTimings& t) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "fvae_lint: cannot write --json file %s\n",
                 out_path.string().c_str());
    return;
  }
  out << "{\n  \"clean\": " << (findings.empty() ? "true" : "false")
      << ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const fvae::lint::Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"rule\": \"" << JsonEscape(f.rule) << "\", \"file\": \""
        << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"message\": \"" << JsonEscape(f.message)
        << "\", \"excerpt\": \""
        << JsonEscape(LineExcerpt(root, f.file, f.line)) << "\"}";
  }
  out << (findings.empty() ? "]" : "\n  ]") << ",\n  \"timing_ms\": {";
  char buf[64];
  for (const auto& [phase, ms] : t.phases) {
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
    out << "\"" << phase << "\": " << buf << ", ";
  }
  std::snprintf(buf, sizeof(buf), "%.3f", t.total_ms());
  out << "\"total\": " << buf << "},\n  \"file_count\": " << t.file_count
      << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root = ".";
  std::filesystem::path json_path;
  double budget_ms = 0;  // 0: report timing but do not enforce
  bool root_given = false;
  auto usage_error = [](const std::string& what) {
    std::fprintf(stderr,
                 "fvae_lint: %s\n"
                 "usage: fvae_lint [repo_root] [--budget-ms N] [--json FILE]\n",
                 what.c_str());
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--budget-ms" || arg == "--json") {
      if (i + 1 >= argc) return usage_error(arg + " needs a value");
      const char* value = argv[++i];
      if (arg == "--json") {
        json_path = value;
        continue;
      }
      char* end = nullptr;
      budget_ms = std::strtod(value, &end);
      if (*end != '\0' || !(budget_ms > 0) || !std::isfinite(budget_ms)) {
        return usage_error("--budget-ms wants a positive number of "
                           "milliseconds, got '" + std::string(value) + "'");
      }
    } else if (arg.rfind("-", 0) == 0 || root_given) {
      return usage_error("unexpected argument '" + arg + "'");
    } else {
      root = arg;
      root_given = true;
    }
  }
  if (!std::filesystem::exists(root / "src")) {
    std::fprintf(stderr, "fvae_lint: %s does not look like the repo root "
                         "(no src/ directory)\n",
                 root.string().c_str());
    return 2;
  }
  fvae::lint::LintTimings timings;
  const std::vector<fvae::lint::Finding> findings =
      fvae::lint::LintTree(root, &timings);
  for (const fvae::lint::Finding& finding : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", finding.file.c_str(),
                 finding.line, finding.rule.c_str(),
                 finding.message.c_str());
  }
  if (!json_path.empty()) {
    WriteJsonReport(json_path, root, findings, timings);
  }
  int rc = 0;
  if (!findings.empty()) {
    std::fprintf(stderr, "fvae_lint: %zu finding(s)\n", findings.size());
    rc = 1;
  } else {
    std::printf("fvae_lint: clean\n");
  }
  std::printf("fvae_lint: timing: %zu files", timings.file_count);
  for (const auto& [phase, ms] : timings.phases) {
    std::string label = phase;
    std::replace(label.begin(), label.end(), '_', '-');
    std::printf(", %s %.1f ms", label.c_str(), ms);
  }
  std::printf(", total %.1f ms\n", timings.total_ms());
  if (budget_ms > 0 && timings.total_ms() > budget_ms) {
    std::fprintf(stderr,
                 "fvae_lint: self-runtime budget exceeded: %.1f ms > "
                 "%.1f ms budget\n",
                 timings.total_ms(), budget_ms);
    rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
