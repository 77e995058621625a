// The fleet orchestrator's determinism contract: a heterogeneous fleet
// simulated on 1, 2, and 8 lanes produces bit-identical results — fleet
// checksum, every aggregate, the merged telemetry registry, and the
// byte-exact gateway outputs.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fleet/orchestrator.hpp"
#include "support/test_dir.hpp"

namespace iprune::fleet {
namespace {

FleetSpec test_spec() {
  // All five harvest profiles, both models, all three preservation modes,
  // plus injected outages — small enough for a unit test, heterogeneous
  // enough to catch cross-device interference.
  FleetSpec spec = FleetSpec::example(48);
  spec.inferences = 2;
  spec.telemetry = true;
  spec.batch = 16;  // several batches, so batching is exercised too
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_equal(const GroupStats& a, const GroupStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.deadline_missed, b.deadline_missed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.inferences, b.inferences);
  EXPECT_EQ(a.power_failures, b.power_failures);
  EXPECT_EQ(a.injected_outages, b.injected_outages);
  EXPECT_EQ(a.events, b.events);
  // Bit-equality on the summed doubles, not approximate equality: the
  // fold order is fixed, so the sums must be the exact same value.
  EXPECT_EQ(a.harvested_j, b.harvested_j);
  EXPECT_EQ(a.consumed_j, b.consumed_j);
  EXPECT_EQ(a.wasted_j, b.wasted_j);
  EXPECT_EQ(a.on_s, b.on_s);
  EXPECT_EQ(a.off_s, b.off_s);
  EXPECT_EQ(a.max_sim_s, b.max_sim_s);
  EXPECT_EQ(a.latency_us.count(), b.latency_us.count());
  EXPECT_EQ(a.latency_us.sum(), b.latency_us.sum());
  for (std::size_t i = 0; i < telemetry::Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.latency_us.bucket(i), b.latency_us.bucket(i));
  }
}

TEST(FleetDeterminism, BitIdenticalAcrossLaneCounts) {
  const FleetSpec spec = test_spec();
  const FleetOrchestrator orchestrator(spec);

  runtime::ThreadPool serial(1);
  const FleetResult reference = orchestrator.run(&serial);
  ASSERT_EQ(reference.total.devices, 48u);
  // The example mix must actually exercise intermittency for this test
  // to mean anything.
  EXPECT_GT(reference.total.power_failures, 0u);
  EXPECT_GT(reference.total.injected_outages, 0u);
  EXPECT_GT(reference.registry.events_seen(), 0u);

  for (const std::size_t lanes : {2u, 8u}) {
    runtime::ThreadPool pool(lanes);
    const FleetResult result = orchestrator.run(&pool);
    EXPECT_EQ(result.checksum, reference.checksum) << lanes << " lanes";
    expect_equal(result.total, reference.total);
    ASSERT_EQ(result.groups.size(), reference.groups.size());
    for (std::size_t g = 0; g < result.groups.size(); ++g) {
      expect_equal(result.groups[g], reference.groups[g]);
    }
    EXPECT_EQ(result.registry.events_seen(),
              reference.registry.events_seen());
    for (std::size_t c = 0; c < telemetry::kEventClassCount; ++c) {
      const auto cls = static_cast<telemetry::EventClass>(c);
      EXPECT_EQ(result.registry.for_class(cls).events,
                reference.registry.for_class(cls).events);
      EXPECT_EQ(result.registry.for_class(cls).energy_j,
                reference.registry.for_class(cls).energy_j);
    }
  }
}

TEST(FleetDeterminism, GatewayFilesByteIdenticalAcrossLaneCounts) {
  const FleetSpec spec = test_spec();
  const FleetOrchestrator orchestrator(spec);

  std::string devices_csv;
  std::string summary_csv;
  std::string prom;
  const test::TestDir tmp;
  for (const std::size_t lanes : {1u, 4u}) {
    const std::string dir = tmp.file("fleet_gw_" + std::to_string(lanes));
    MultiGateway gateway;
    gateway.add_owned(std::make_unique<CsvGateway>(dir));
    gateway.add_owned(
        std::make_unique<PrometheusGateway>(dir + "/fleet_metrics.prom"));
    runtime::ThreadPool pool(lanes);
    (void)orchestrator.run(&pool, &gateway);

    const std::string d = slurp(dir + "/fleet_devices.csv");
    const std::string s = slurp(dir + "/fleet_summary.csv");
    const std::string p = slurp(dir + "/fleet_metrics.prom");
    if (lanes == 1) {
      devices_csv = d;
      summary_csv = s;
      prom = p;
      EXPECT_FALSE(d.empty());
      EXPECT_FALSE(s.empty());
      EXPECT_FALSE(p.empty());
    } else {
      EXPECT_EQ(d, devices_csv);
      EXPECT_EQ(s, summary_csv);
      EXPECT_EQ(p, prom);
    }
  }
}

TEST(FleetDeterminism, DefaultPoolAndNoGatewayMatchExplicit) {
  FleetSpec spec = test_spec();
  spec = spec.with_devices(8);  // keep the shared-pool run small
  const FleetOrchestrator orchestrator(spec);
  runtime::ThreadPool serial(1);
  const FleetResult a = orchestrator.run(&serial);
  const FleetResult b = orchestrator.run();  // shared pool, null gateway
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.total.events, b.total.events);
}

}  // namespace
}  // namespace iprune::fleet
