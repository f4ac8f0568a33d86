// Top-level linter facade: source text in, LintReport out.
#pragma once

#include <string_view>

#include "lint/emit.hpp"
#include "lint/pass.hpp"

namespace drbml::lint {

class Linter {
 public:
  explicit Linter(LintOptions opts = {}) : opts_(std::move(opts)) {}

  /// Lints one front end. `race`, when given, is the static report of the
  /// same source under options().detector and is adopted instead of
  /// judged again.
  [[nodiscard]] LintReport lint(
      const analysis::FrontEnd& fe,
      const analysis::RaceReport* race = nullptr) const;

  /// Convenience: lint(FrontEnd(source)). Throws ParseError on malformed
  /// input.
  [[nodiscard]] LintReport lint_source(std::string_view source) const;

  [[nodiscard]] const LintOptions& options() const noexcept { return opts_; }

 private:
  LintOptions opts_;
  PassManager manager_;
};

}  // namespace drbml::lint
