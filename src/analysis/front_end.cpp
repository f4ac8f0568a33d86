#include "analysis/front_end.hpp"

#include "minic/parser.hpp"

namespace drbml::analysis {

FrontEnd::FrontEnd(std::string_view source)
    : program_(minic::parse_program(source)),
      resolution_(resolve(*program_.unit)) {}

const std::vector<ParallelRegion>& FrontEnd::regions(
    const CollectOptions& opts) const {
  for (const auto& [collected_with, regions] : regions_) {
    if (collected_with == opts) return regions;
  }
  regions_.emplace_front(opts,
                         collect_regions(*program_.unit, resolution_, opts));
  return regions_.front().second;
}

}  // namespace drbml::analysis
