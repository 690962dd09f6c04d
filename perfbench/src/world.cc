#include "world.h"

#include <cmath>

#include "common/random.h"
#include "simulator/datacentre.h"

namespace perfbench {

using namespace explainit;

Result<World> BuildWorld(const WorldSpec& spec) {
  sim::DatacentreConfig config;
  config.num_pipelines = 2;
  config.num_datanodes = spec.datanodes;
  config.day_period = 1440;
  sim::DatacentreModel model(config);

  // The §5.1 fault as in sim::MakePacketDropCase, placed in the history:
  // a retransmit burst on every datanode from the middle of the history,
  // decaying after the drop rule is removed.
  const size_t h = spec.history_minutes;
  const size_t w0 = h / 2;
  const size_t rule_end = w0 + h / 10;
  const size_t w1 = rule_end + h / 10;
  std::vector<sim::Intervention> faults;
  for (size_t node : model.NodesByMetric("tcp_retransmits")) {
    sim::Intervention iv;
    iv.node = node;
    iv.begin = w0;
    iv.end = w1;
    iv.shape = [rule_end](size_t t) {
      if (t < rule_end) return 35.0;
      return 35.0 * std::exp(-static_cast<double>(t - rule_end) / 12.0);
    };
    faults.push_back(iv);
  }

  Rng rng(spec.seed);
  const size_t steps = h + spec.continuation_minutes;
  const la::Matrix values = model.network().Simulate(steps, rng, faults);

  World world;
  world.store = std::make_shared<tsdb::SeriesStore>(spec.store_options);
  world.history = TimeRange{0, static_cast<int64_t>(h) * kSecondsPerMinute};
  std::vector<size_t> nodes;
  for (size_t i = 0; i < model.network().num_nodes(); ++i) {
    const sim::NodeSpec& node = model.network().node(i);
    // Hidden nodes stay unmonitored, as in DatacentreModel::WriteTo.
    if (node.metric_name.rfind("_hidden", 0) == 0) continue;
    nodes.push_back(i);
    world.series.push_back(SeriesKey{node.metric_name, node.tags});
  }
  for (size_t s = 0; s < nodes.size(); ++s) {
    const SeriesKey& key = world.series[s];
    for (size_t t = 0; t < h; ++t) {
      EXPLAINIT_RETURN_IF_ERROR(world.store->Write(
          key.metric_name, key.tags,
          static_cast<int64_t>(t) * kSecondsPerMinute, values(t, nodes[s])));
    }
  }
  world.continuation = la::Matrix(spec.continuation_minutes, nodes.size());
  for (size_t t = 0; t < spec.continuation_minutes; ++t) {
    for (size_t s = 0; s < nodes.size(); ++s) {
      world.continuation(t, s) = values(h + t, nodes[s]);
    }
  }
  return world;
}

}  // namespace perfbench
