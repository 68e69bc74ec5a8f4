#include "frontier/direction.h"

#include "common/env.h"

namespace gal {

DirectionConfig DirectionConfig::FromEnv() {
  DirectionConfig config;
  // In the row's spelling order: auto|push|pull.
  constexpr DirectionMode kModes[] = {
      DirectionMode::kAuto, DirectionMode::kPushOnly, DirectionMode::kPullOnly};
  if (const auto env = env::Lookup(env::Knob::kFrontierMode, "auto")) {
    config.mode = kModes[env->choice];
  }
  if (const auto env = env::Lookup(env::Knob::kFrontierAlpha, config.alpha)) {
    config.alpha = env->number;
  }
  if (const auto env = env::Lookup(env::Knob::kFrontierBeta, config.beta)) {
    config.beta = env->number;
  }
  return config;
}

Direction DirectionController::Next(uint64_t frontier_edges,
                                    uint64_t frontier_vertices,
                                    uint64_t unexplored_edges) {
  switch (config_.mode) {
    case DirectionMode::kPushOnly:
      current_ = Direction::kPush;
      return current_;
    case DirectionMode::kPullOnly:
      current_ = Direction::kPull;
      return current_;
    case DirectionMode::kAuto:
      break;
  }
  if (current_ == Direction::kPush) {
    // Scatter would check more edges than 1/alpha of what is left to
    // claim: gathering over in-edges with early exit is cheaper.
    if (static_cast<double>(frontier_edges) >
        static_cast<double>(unexplored_edges) / config_.alpha) {
      current_ = Direction::kPull;
      ++switches_;
    }
  } else {
    // The frontier thinned out: scanning every candidate's in-edges
    // costs more than scattering the few remaining frontier vertices.
    if (static_cast<double>(frontier_vertices) <
        static_cast<double>(num_vertices_) / config_.beta) {
      current_ = Direction::kPush;
      ++switches_;
    }
  }
  return current_;
}

}  // namespace gal
