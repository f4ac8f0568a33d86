#include "lint/pass.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "support/strings.hpp"

namespace drbml::lint {

namespace {

constexpr const char* kSuppressMarker = "drbml-lint-suppress(";

/// Trimmed-code line -> set of suppressed check ids ("all" = every check).
std::map<int, std::set<std::string>> collect_suppressions(
    const minic::Program& program) {
  std::map<int, std::set<std::string>> out;
  const std::vector<std::string> lines = split_lines(program.original);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::size_t pos = lines[i].find(kSuppressMarker);
    while (pos != std::string::npos) {
      const std::size_t open = pos + std::string_view(kSuppressMarker).size();
      const std::size_t close = lines[i].find(')', open);
      if (close == std::string::npos) break;
      // The comment covers its own trimmed line; a comment-only line
      // (dropped by the stripper) covers the next surviving line.
      int target = program.strip.to_trimmed_line(static_cast<int>(i) + 1);
      for (std::size_t j = i + 1; target == 0 && j < lines.size(); ++j) {
        target = program.strip.to_trimmed_line(static_cast<int>(j) + 1);
      }
      if (target != 0) {
        for (const std::string& id :
             split(lines[i].substr(open, close - open), ',')) {
          const std::string_view trimmed = trim(id);
          if (!trimmed.empty()) out[target].insert(std::string(trimmed));
        }
      }
      pos = lines[i].find(kSuppressMarker, close);
    }
  }
  return out;
}

bool pass_enabled(const LintPass& pass, const LintOptions& opts) {
  if (opts.enabled.empty()) return true;
  return std::find(opts.enabled.begin(), opts.enabled.end(), pass.id()) !=
         opts.enabled.end();
}

}  // namespace

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
  }
  return "?";
}

LintReport PassManager::run(const analysis::FrontEnd& fe,
                            const LintOptions& opts,
                            const analysis::RaceReport* race) const {
  LintReport report;
  report.race = race != nullptr
                    ? *race
                    : analysis::StaticRaceDetector(opts.detector).analyze(fe);
  const minic::Program& program = fe.program();
  const LintContext ctx{program, fe.resolution(),
                        fe.regions(opts.detector.collect), report.race, opts};
  for (const auto& pass : passes_) {
    if (!pass_enabled(*pass, opts)) continue;
    pass->run(ctx, report.diagnostics);
  }

  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
                     if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
                     return a.check_id < b.check_id;
                   });

  const auto suppressions = collect_suppressions(program);
  if (!suppressions.empty()) {
    std::vector<Diagnostic> kept;
    kept.reserve(report.diagnostics.size());
    for (auto& d : report.diagnostics) {
      const auto it = suppressions.find(d.loc.line);
      const bool drop = it != suppressions.end() &&
                        (it->second.count(d.check_id) != 0 ||
                         it->second.count("all") != 0);
      if (drop) {
        ++report.suppressed;
      } else {
        kept.push_back(std::move(d));
      }
    }
    report.diagnostics = std::move(kept);
  }
  return report;
}

}  // namespace drbml::lint
