#include "tlav/algos/wcc.h"

#include "frontier/traversal.h"
#include "graph/components.h"

namespace gal {

WccResult Wcc(const Graph& g, const WccOptions& options) {
  WccResult result;
  result.status = CheckFrontierConfig(options.engine);
  if (!result.status.ok()) return result;
  result.component = CanonicalizeComponents(
      g, FrontierWcc(g.UndirectedView(), options.engine, options.direction,
                     result.stats));
  result.num_components = CountComponents(result.component);
  return result;
}

WccResult Wcc(const Graph& g, const TlavConfig& config) {
  WccOptions options;
  options.engine = config;
  return Wcc(g, options);
}

}  // namespace gal
