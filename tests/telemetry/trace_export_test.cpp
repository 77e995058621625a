// Golden-file test for the trace exporters: a tiny engine run must export
// structurally valid Chrome-trace JSON, and the trace-derived
// preservation/computation/recharge split must match the engine's own
// aggregate counters (the subsystem's reason to exist: Fig. 2 from a live
// trace instead of hand-maintained accounting).

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "data/synthetic.hpp"
#include "engine/engine.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "power/supply.hpp"
#include "support/test_dir.hpp"
#include "telemetry/trace_export.hpp"

namespace iprune {
namespace {

nn::Graph make_tiny_graph(util::Rng& rng) {
  nn::Graph g({2, 6, 6});
  auto conv = g.add(std::make_unique<nn::Conv2d>(
                        "conv",
                        nn::Conv2dSpec{.in_channels = 2, .out_channels = 4,
                                       .kernel_h = 3, .kernel_w = 3,
                                       .pad_h = 1, .pad_w = 1},
                        rng),
                    {g.input()});
  auto relu = g.add(std::make_unique<nn::Relu>("relu"), {conv});
  auto pool = g.add(std::make_unique<nn::MaxPool2d>("pool",
                                                    nn::PoolSpec{2, 2, 2}),
                    {relu});
  auto flat = g.add(std::make_unique<nn::Flatten>("flatten"), {pool});
  auto fc = g.add(std::make_unique<nn::Dense>("fc", 4 * 3 * 3, 3, rng),
                  {flat});
  g.set_output(fc);
  return g;
}

nn::Tensor make_batch(util::Rng& rng, std::size_t count) {
  nn::Tensor batch({count, 2, 6, 6});
  for (std::size_t i = 0; i < batch.numel(); ++i) {
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return batch;
}

nn::Tensor first_sample(const nn::Tensor& batch) {
  nn::Shape shape = batch.shape();
  shape.erase(shape.begin());
  nn::Tensor sample(shape);
  for (std::size_t i = 0; i < sample.numel(); ++i) {
    sample[i] = batch[i];
  }
  return sample;
}

/// Validate JSON structure without a parser: balanced {} / [] outside
/// string literals, quote-escape correctness, no bare NaN/Infinity (which
/// are invalid JSON and break Perfetto's import).
void expect_valid_json_shape(const std::string& json) {
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++braces;
        break;
      case '}':
        --braces;
        break;
      case '[':
        ++brackets;
        break;
      case ']':
        --brackets;
        break;
      default:
        break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Non-finite numbers would be serialized as bare tokens after a colon
  // ("inference" the string is fine; ":inf" the number is not).
  EXPECT_EQ(json.find(":nan"), std::string::npos);
  EXPECT_EQ(json.find(":inf"), std::string::npos);
  EXPECT_EQ(json.find(":-nan"), std::string::npos);
  EXPECT_EQ(json.find(":-inf"), std::string::npos);
}

struct TracedRun {
  engine::InferenceResult result;
  std::unique_ptr<telemetry::RecorderSink> sink;
};

TracedRun traced_run(double power_w,
                     engine::PreservationMode mode =
                         engine::PreservationMode::kImmediate,
                     power::BufferConfig buffer = {}) {
  util::Rng rng(7);
  nn::Graph graph = make_tiny_graph(rng);
  const nn::Tensor calib = make_batch(rng, 8);
  device::Msp430Device dev(device::DeviceConfig::msp430fr5994(),
                           std::make_unique<power::ConstantSupply>(power_w),
                           buffer);
  TracedRun run;
  run.sink = std::make_unique<telemetry::RecorderSink>();
  dev.set_trace_sink(run.sink.get());
  engine::EngineConfig config;
  config.mode = mode;
  engine::DeployedModel model(graph, config, dev, calib);
  engine::IntermittentEngine eng(model, dev);
  run.result = eng.run(first_sample(calib));
  return run;
}

TEST(TraceExport, ChromeTraceJsonIsStructurallyValid) {
  const TracedRun run = traced_run(power::SupplyPresets::kContinuousW);
  ASSERT_TRUE(run.result.stats.completed);
  ASSERT_GT(run.sink->size(), 0u);

  const std::string json = telemetry::chrome_trace_json(run.sink->events());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Track metadata plus every phase kind the engine/device emit.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Layer scopes carry the graph's layer names.
  EXPECT_NE(json.find("\"conv\""), std::string::npos);
  EXPECT_NE(json.find("\"fc\""), std::string::npos);
  expect_valid_json_shape(json);
}

TEST(TraceExport, ExportWritesLoadableFile) {
  const TracedRun run = traced_run(power::SupplyPresets::kContinuousW);
  const test::TestDir tmp;
  const std::string path = tmp.file("tiny.trace.json");
  ASSERT_TRUE(telemetry::export_chrome_trace(run.sink->events(), path));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_EQ(content.str(), telemetry::chrome_trace_json(run.sink->events()));
}

TEST(TraceExport, BreakdownMatchesEngineAggregates) {
  const TracedRun run = traced_run(power::SupplyPresets::kContinuousW);
  ASSERT_TRUE(run.result.stats.completed);
  const engine::InferenceStats& s = run.result.stats;
  const auto breakdown =
      telemetry::LatencyBreakdown::from(run.sink->registry());

  // 1% is the acceptance bar; the attribution mirrors CostTag exactly, so
  // the agreement should be tight.
  EXPECT_NEAR(breakdown.preservation_s, s.nvm_write_s,
              0.01 * s.nvm_write_s + 1e-12);
  EXPECT_NEAR(breakdown.fetch_s, s.nvm_read_s, 0.01 * s.nvm_read_s + 1e-12);
  EXPECT_NEAR(breakdown.compute_s, s.lea_s + s.cpu_s,
              0.01 * (s.lea_s + s.cpu_s) + 1e-12);
  EXPECT_NEAR(breakdown.total_s(), s.latency_s, 0.01 * s.latency_s + 1e-12);
  // Immediate preservation under continuous power: the Fig. 2 shape.
  EXPECT_GT(breakdown.preservation_s, breakdown.compute_s);
}

TEST(TraceExport, BreakdownCoversRechargeUnderWeakPower) {
  // The tiny model's whole run fits inside the default 104 uJ capacitor;
  // shrink it so the weak supply actually causes brown-outs.
  const TracedRun run = traced_run(
      power::SupplyPresets::kWeakW, engine::PreservationMode::kImmediate,
      power::BufferConfig{.capacitance_f = 20e-6, .v_on = 2.8, .v_off = 2.4});
  ASSERT_TRUE(run.result.stats.completed);
  ASSERT_GT(run.result.stats.power_failures, 0u);
  const engine::InferenceStats& s = run.result.stats;
  const auto breakdown =
      telemetry::LatencyBreakdown::from(run.sink->registry());
  EXPECT_NEAR(breakdown.recharge_s, s.off_s, 0.01 * s.off_s + 1e-12);
  EXPECT_NEAR(breakdown.reboot_s, s.reboot_s, 0.01 * s.reboot_s + 1e-12);
  EXPECT_NEAR(breakdown.total_s(), s.latency_s, 0.01 * s.latency_s);
  // Under weak harvesting, recharge dead time dominates wall-clock.
  EXPECT_GT(breakdown.recharge_s, breakdown.on_s());
}

TEST(TraceExport, LayerWallTimesMatchPerNodeLatencies) {
  const TracedRun run = traced_run(power::SupplyPresets::kContinuousW);
  const auto& layers = run.sink->registry().layers();
  ASSERT_EQ(layers.size(), run.result.per_node.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(layers[i].name, run.result.per_node[i].name);
    EXPECT_NEAR(layers[i].wall_us * 1e-6, run.result.per_node[i].latency_s,
                1e-9)
        << layers[i].name;
  }
}

TEST(TraceExport, SummaryCsvListsActiveClasses) {
  const TracedRun run = traced_run(power::SupplyPresets::kContinuousW);
  const std::string csv =
      telemetry::summary_csv(run.sink->registry()).str();
  EXPECT_NE(csv.find("class,events,busy_us"), std::string::npos);
  EXPECT_NE(csv.find("nvm_write"), std::string::npos);
  EXPECT_NE(csv.find("lea"), std::string::npos);
  EXPECT_NE(csv.find("progress_commit"), std::string::npos);
  // No power failures under continuous power: no recharge row.
  EXPECT_EQ(csv.find("recharge"), std::string::npos);
}

TEST(TraceExport, BreakdownTableRendersShares) {
  const TracedRun run = traced_run(power::SupplyPresets::kContinuousW);
  const std::string table = telemetry::breakdown_table(
      telemetry::LatencyBreakdown::from(run.sink->registry()));
  EXPECT_NE(table.find("Progress preservation"), std::string::npos);
  EXPECT_NE(table.find("Recharge"), std::string::npos);
  EXPECT_NE(table.find("100.0%"), std::string::npos);
  const std::string per_layer = telemetry::layer_table(run.sink->registry());
  EXPECT_NE(per_layer.find("conv"), std::string::npos);
  EXPECT_NE(per_layer.find("fc"), std::string::npos);
}

TEST(TraceExport, TaskAtomicModeTraceStaysConsistent) {
  const TracedRun run = traced_run(power::SupplyPresets::kContinuousW,
                                   engine::PreservationMode::kTaskAtomic);
  ASSERT_TRUE(run.result.stats.completed);
  const engine::InferenceStats& s = run.result.stats;
  const auto breakdown =
      telemetry::LatencyBreakdown::from(run.sink->registry());
  EXPECT_NEAR(breakdown.total_s(), s.latency_s, 0.01 * s.latency_s + 1e-12);
  expect_valid_json_shape(telemetry::chrome_trace_json(run.sink->events()));
}

}  // namespace
}  // namespace iprune
