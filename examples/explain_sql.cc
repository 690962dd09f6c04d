// Appendix C walkthrough, fully declarative: the whole three-stage RCA
// workflow — (1) target metric family, (2) feature-family search space,
// (3) conditioning variables — written as ONE first-class EXPLAIN
// statement and executed through Engine::Query, the same statement API
// that serves plain SELECTs. (This replaces the Session-only flow the
// sql_session example used to drive programmatically.)
#include <cstdio>

#include "common/strings.h"
#include "core/engine.h"
#include "simulator/case_studies.h"

using namespace explainit;

int main() {
  sim::CaseStudyWorld world = sim::MakeHypervisorDropCase(480);
  core::Engine engine(world.store);
  // Expose the store as the paper's `tsdb` table:
  // (timestamp, metric_name, tag, value).
  engine.RegisterStoreTable("tsdb", world.range);

  // A domain UDF, as Appendix C suggests (hostgroup of "datanode-3").
  engine.functions().Register(
      "DATANODE_ID",
      [](const std::vector<table::Value>& args) -> Result<table::Value> {
        const std::string host = args[0].AsString();
        const auto parts = StrSplit(host, '-');
        return table::Value::String(parts.size() > 1 ? parts[1] : "");
      });

  // The declarative statement. Target (Listing 1), search space as a
  // UNION ALL of two feature-family queries (network + disk, Listing 2
  // shape), conditioning on the input load (Listing 4):
  const char* kExplain = R"(
      EXPLAIN (SELECT timestamp, AVG(value) AS runtime_sec
               FROM tsdb
               WHERE metric_name = 'overall_runtime'
               GROUP BY timestamp)
      GIVEN (SELECT timestamp, AVG(value) AS input_events
             FROM tsdb
             WHERE metric_name LIKE 'input_rate%'
             GROUP BY timestamp)
      USING (SELECT timestamp, CONCAT('net-', tag['host']) AS family,
                    AVG(value) AS v
             FROM tsdb WHERE metric_name = 'tcp_retransmits'
             GROUP BY timestamp, CONCAT('net-', tag['host'])
             UNION ALL
             SELECT timestamp, CONCAT('disk-', tag['host']) AS family,
                    AVG(value) AS v
             FROM tsdb WHERE metric_name = 'disk_read_latency_ms'
             GROUP BY timestamp, CONCAT('disk-', tag['host']))
      SCORE BY 'L2' TOP 10)";
  std::printf("EXPLAIN statement:%s\n\n", kExplain);

  auto result = engine.Query(kExplain);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const core::ScoreTable& table = *result->score_table;
  std::printf("%s\n", table.ToString(10).c_str());

  // The Score Table is an ordinary relation: register it and drill down
  // with plain SQL (soft keywords like `score` stay addressable).
  engine.catalog().RegisterTable("scores", result->table);
  auto strong = engine.Query(
      "SELECT rank, family, score FROM scores WHERE score > 0.2 "
      "ORDER BY score DESC LIMIT 5");
  if (strong.ok()) {
    std::printf("re-queried Score Table (score > 0.2):\n%s\n",
                strong->table.ToString().c_str());
  }

  // The network families must outrank the disk families once load is
  // conditioned away.
  size_t best_net = 0, best_disk = 0;
  for (size_t i = 0; i < table.rows.size(); ++i) {
    const std::string& name = table.rows[i].family_name;
    if (best_net == 0 && name.rfind("net-", 0) == 0) best_net = i + 1;
    if (best_disk == 0 && name.rfind("disk-", 0) == 0) best_disk = i + 1;
  }
  std::printf("first network family: rank %zu; first disk family: rank %zu\n",
              best_net, best_disk);
  return best_net >= 1 && (best_disk == 0 || best_net < best_disk) ? 0 : 1;
}
