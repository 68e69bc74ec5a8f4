#include "frontier/direction.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace gal {
namespace {

/// Overrides `*value` from `var` when it holds a positive number; a
/// malformed value warns once and keeps the default.
void OverrideThreshold(const char* var, std::atomic<bool>& warned,
                       double* value) {
  const char* env = std::getenv(var);
  if (env == nullptr || internal::ParsePositiveEnvDouble(env, value)) return;
  internal::WarnOnceBadEnv(warned, var, env, "a positive number", *value);
}

}  // namespace

DirectionConfig DirectionConfig::FromEnv() {
  DirectionConfig config;
  if (const char* env = std::getenv("GAL_FRONTIER_MODE")) {
    if (std::strcmp(env, "push") == 0) {
      config.mode = DirectionMode::kPushOnly;
    } else if (std::strcmp(env, "pull") == 0) {
      config.mode = DirectionMode::kPullOnly;
    } else if (std::strcmp(env, "auto") != 0) {
      static std::atomic<bool> warned{false};
      internal::WarnOnceBadEnv(warned, "GAL_FRONTIER_MODE", env,
                               "one of auto|push|pull", "auto");
    }
  }
  static std::atomic<bool> alpha_warned{false};
  static std::atomic<bool> beta_warned{false};
  OverrideThreshold("GAL_FRONTIER_ALPHA", alpha_warned, &config.alpha);
  OverrideThreshold("GAL_FRONTIER_BETA", beta_warned, &config.beta);
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
