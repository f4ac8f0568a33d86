// One source text through the front end, once.
//
// Every consumer of a program -- static judging, the lint passes, repair
// candidate generation, the dynamic detector, the schedule explorer and
// all four repair gates -- needs the same parse and the same name
// resolution, and most also need the parallel regions or the compiled
// bytecode. A FrontEnd parses and resolves the text at construction and
// derives the rest on first request, keeping each result for every later
// consumer; the string_view entry points of the detectors are thin
// wrappers that build one.
//
// Sharing rules: a FrontEnd is handed around by const reference, but the
// derived results are filled in lazily, so one FrontEnd is used by one
// thread at a time. Everything derived points into the owned AST, which
// lives on the heap: moving a FrontEnd keeps those pointers valid.
#pragma once

#include <forward_list>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/resolve.hpp"
#include "minic/ast.hpp"

namespace drbml::runtime::bc {
struct Module;
}  // namespace drbml::runtime::bc

namespace drbml::analysis {

class FrontEnd {
 public:
  /// Parses and resolves `source`. Throws ParseError on malformed input.
  explicit FrontEnd(std::string_view source);

  [[nodiscard]] const minic::Program& program() const noexcept {
    return program_;
  }
  [[nodiscard]] const minic::TranslationUnit& unit() const noexcept {
    return *program_.unit;
  }
  [[nodiscard]] const Resolution& resolution() const noexcept {
    return resolution_;
  }

  /// The parallel regions collected under `opts`: collected on the first
  /// request for these options and kept.
  [[nodiscard]] const std::vector<ParallelRegion>& regions(
      const CollectOptions& opts = {}) const;

  /// Holder of the verified bytecode compiled from unit(). The analysis
  /// layer cannot compile, so the runtime fills it on first use (see
  /// runtime::compiled_module); it stays empty for static-only consumers.
  [[nodiscard]] std::shared_ptr<const runtime::bc::Module>& module_slot()
      const noexcept {
    return module_;
  }

 private:
  minic::Program program_;
  Resolution resolution_;
  mutable std::forward_list<std::pair<CollectOptions,
                                      std::vector<ParallelRegion>>>
      regions_;
  mutable std::shared_ptr<const runtime::bc::Module> module_;
};

}  // namespace drbml::analysis
