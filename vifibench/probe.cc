#include "probe.h"

namespace vifibench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Mobility: return "mobility";
    case Layer::Channel: return "channel";
    case Layer::Stack: return "stack";
    case Layer::Scenario: return "scenario";
    case Layer::Handoff: return "handoff";
    case Layer::Analysis: return "analysis";
    case Layer::CatalogOpen: return "tracegen.catalog_open";
    case Layer::TripLoad: return "tracegen.trip_load";
    case Layer::ScheduleBuild: return "trace.schedule_build";
    case Layer::kCount: break;
  }
  return "?";
}

LayerClock::Cost LayerClock::calibrate() {
  // Empty frames nested in one parent frame: the children's self time is
  // the inner cost, the parent's self time the outer cost (plus a loop
  // step, which is negligible next to two clock reads).
  constexpr int kFrames = 200000;
  LayerClock clock;
  clock.time(Layer::Stack, [&] {
    for (int i = 0; i < kFrames; ++i) clock.time(Layer::Mobility, [] {});
  });
  return {clock.self_s(Layer::Mobility) / kFrames,
          clock.self_s(Layer::Stack) / kFrames};
}

vifi::channel::VehicularChannel::PositionFn timed_positions(
    vifi::channel::VehicularChannel::PositionFn inner, LayerClock& clock) {
  return [inner = std::move(inner), &clock](vifi::sim::NodeId node,
                                            vifi::Time t) {
    return clock.time(Layer::Mobility, [&] { return inner(node, t); });
  };
}

}  // namespace vifibench
