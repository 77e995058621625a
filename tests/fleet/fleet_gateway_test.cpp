// Gateway exports: CSV shape/format, Prometheus exposition-format
// invariants (cumulative le buckets, +Inf == count), and MultiGateway
// fan-out.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/orchestrator.hpp"
#include "support/test_dir.hpp"

namespace iprune::fleet {
namespace {

FleetResult small_fleet(std::size_t devices, MetricsGateway* gateway) {
  FleetSpec spec = FleetSpec::example(devices);
  spec.inferences = 2;
  const FleetOrchestrator orchestrator(spec);
  runtime::ThreadPool pool(1);
  return orchestrator.run(&pool, gateway);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::size_t count_cells(const std::string& csv_line) {
  return static_cast<std::size_t>(
             std::count(csv_line.begin(), csv_line.end(), ',')) +
         1;
}

TEST(CsvGatewayTest, WritesOneRowPerDeviceAndPerScope) {
  const test::TestDir tmp;
  CsvGateway gateway(tmp.file("fleet_csv_test"));
  const FleetResult result = small_fleet(10, &gateway);

  const std::vector<std::string> devices = read_lines(gateway.devices_path());
  ASSERT_EQ(devices.size(), 1u + result.total.devices);
  EXPECT_EQ(devices[0],
            "index,group,status,verdict,error,inferences,sim_s,on_s,off_s,"
            "consumed_j,harvested_j,wasted_j,power_failures,"
            "injected_outages,events,nvm_bytes_read,nvm_bytes_written,macs,"
            "reexecuted_jobs,integrity_rollbacks,latency_p50_us,"
            "latency_max_us,logits_checksum");
  const std::size_t device_cols = count_cells(devices[0]);
  for (std::size_t i = 1; i < devices.size(); ++i) {
    EXPECT_EQ(count_cells(devices[i]), device_cols) << devices[i];
    // Rows stream in device-index order; the index is the first cell.
    EXPECT_EQ(devices[i].substr(0, devices[i].find(',')),
              std::to_string(i - 1));
  }

  const std::vector<std::string> summary = read_lines(gateway.summary_path());
  // Header + the fleet row + one row per group.
  ASSERT_EQ(summary.size(), 2u + result.groups.size());
  EXPECT_EQ(summary[1].substr(0, 6), "fleet,");
  for (std::size_t i = 2; i < summary.size(); ++i) {
    EXPECT_EQ(summary[i].substr(0, 6), "group,");
  }
  // The fleet row carries the 16-hex-digit fleet checksum as its last cell.
  const std::string checksum =
      summary[1].substr(summary[1].rfind(',') + 1);
  EXPECT_EQ(checksum.size(), 16u);
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(checksum.c_str(), &end, 16);
  EXPECT_EQ(*end, '\0');
  EXPECT_EQ(parsed, result.checksum);

  EXPECT_NE(gateway.describe().find("csv:"), std::string::npos);
}

TEST(PrometheusGatewayTest, RenderFollowsExpositionFormat) {
  NullGateway null;
  const FleetResult result = small_fleet(10, &null);
  const std::string text = PrometheusGateway::render(result);

  EXPECT_NE(text.find("# TYPE iprune_fleet_devices gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("iprune_fleet_devices " +
                      std::to_string(result.total.devices) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("iprune_fleet_inferences_total " +
                      std::to_string(result.total.inferences) + "\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE iprune_fleet_inference_latency_us histogram\n"),
      std::string::npos);
  // Every group appears as a label.
  for (const GroupStats& group : result.groups) {
    EXPECT_NE(text.find("iprune_fleet_group_devices{group=\"" + group.name +
                        "\"} " + std::to_string(group.devices) + "\n"),
              std::string::npos);
  }

  // le buckets must be cumulative (non-decreasing) and +Inf must equal
  // the histogram count, which must equal the completed-inference count.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t previous = 0;
  std::uint64_t inf_value = 0;
  std::uint64_t count_value = 0;
  std::size_t buckets = 0;
  while (std::getline(lines, line)) {
    const std::string bucket_prefix =
        "iprune_fleet_inference_latency_us_bucket{le=\"";
    if (line.rfind(bucket_prefix, 0) == 0) {
      const std::uint64_t value =
          std::stoull(line.substr(line.rfind(' ') + 1));
      if (line.find("+Inf") != std::string::npos) {
        inf_value = value;
      } else {
        EXPECT_GE(value, previous) << line;
        previous = value;
        ++buckets;
      }
    } else if (line.rfind("iprune_fleet_inference_latency_us_count ", 0) ==
               0) {
      count_value = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_EQ(buckets, telemetry::Histogram::kBuckets);
  EXPECT_EQ(inf_value, count_value);
  EXPECT_EQ(count_value, result.total.latency_us.count());
  EXPECT_EQ(count_value, result.total.inferences);
  // The last finite bucket already contains everything.
  EXPECT_EQ(previous, count_value);

  // on_fleet writes exactly render()'s text.
  const test::TestDir tmp;
  const std::string path = tmp.file("fleet_prom_test/metrics.prom");
  PrometheusGateway gateway(path);
  gateway.on_fleet(result);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), text);
}

TEST(MultiGatewayTest, FansOutToEveryChildInOrder) {
  class Counting final : public MetricsGateway {
   public:
    void on_device(const DeviceResult&) override { ++devices; }
    void on_fleet(const FleetResult&) override { ++fleets; }
    [[nodiscard]] std::string describe() const override { return "count"; }
    int devices = 0;
    int fleets = 0;
  };

  Counting first;
  MultiGateway multi;
  multi.add(&first);
  auto owned = std::make_unique<Counting>();
  Counting* second = owned.get();
  multi.add_owned(std::move(owned));
  multi.add(nullptr);  // ignored, not dereferenced

  const FleetResult result = small_fleet(6, &multi);
  EXPECT_EQ(first.devices, static_cast<int>(result.total.devices));
  EXPECT_EQ(first.fleets, 1);
  EXPECT_EQ(second->devices, first.devices);
  EXPECT_EQ(second->fleets, 1);
  EXPECT_EQ(multi.describe(), "multi[count,count]");
}

}  // namespace
}  // namespace iprune::fleet
