// Memory-technology sensitivity matrix: the same iterative prune-retrain
// loop on HAR, re-priced under each backend preset's cost table
// (PruneConfig.backend), then deployed and measured on a device built
// from that preset via engine::make_backend. Each row reports pruning
// quality (accuracy, alive weights, accelerator outputs) and intermittent
// latency/energy at weak power, with deltas against the paper's
// MSP430+FRAM platform — the cost-ratio sensitivity claim (§V) as a
// first-class experiment axis instead of a hand-edited DeviceConfig.
//
// --smoke caps the prune budget and sample count for CI; IPRUNE_FAST=1
// additionally shrinks model preparation (apps/workloads.cpp).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pruner.hpp"
#include "engine/backend.hpp"

namespace {

using namespace iprune;

/// measure_inference against a backend preset instead of the hard-wired
/// MSP430 device: same calibration slice, same per-inference averaging.
bench::MeasuredLatency measure_backend(apps::PreparedModel& pm,
                                       const engine::BackendConfig& backend,
                                       std::size_t count) {
  std::unique_ptr<engine::Backend> be = engine::make_backend(
      backend, bench::make_supply(bench::PowerLevel::kWeak));
  std::vector<std::size_t> calib_idx;
  for (std::size_t i = 0; i < 8; ++i) {
    calib_idx.push_back(i);
  }
  const nn::Tensor calib =
      nn::gather_rows(pm.workload.val.inputs, calib_idx);
  engine::DeployedModel model(pm.workload.graph, pm.workload.prune.engine,
                              *be, calib);
  engine::IntermittentEngine eng(model, *be);

  bench::MeasuredLatency m;
  m.model_bytes = model.model_bytes();
  m.macs = model.total_macs();
  m.acc_outputs = model.total_acc_outputs();
  for (std::size_t n = 0; n < count; ++n) {
    const auto result = eng.run(bench::sample_of(pm.workload.val, n));
    m.completed = m.completed && result.stats.completed;
    m.latency_s += result.stats.latency_s;
    m.energy_j += result.stats.energy_j;
    m.power_failures += static_cast<double>(result.stats.power_failures);
    m.nvm_bytes_written +=
        static_cast<double>(result.stats.nvm_bytes_written);
  }
  const auto divisor = static_cast<double>(count);
  m.latency_s /= divisor;
  m.energy_j /= divisor;
  m.power_failures /= divisor;
  m.nvm_bytes_written /= divisor;
  return m;
}

std::string signed_pct(double current, double baseline) {
  if (baseline == 0.0) {
    return "-";
  }
  const double pct = (current - baseline) / baseline * 100.0;
  return (pct >= 0.0 ? "+" : "") + util::Table::format(pct, 1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  std::puts("== Backend matrix: pruning quality across memory "
            "technologies (HAR) ==");
  std::puts("(same loop, same allocator; only the backend cost table "
            "differs)\n");

  const engine::BackendConfig presets[] = {
      engine::BackendConfig::msp430_fram(),  // baseline row (the paper's
                                             // platform); deltas are
                                             // relative to it
      engine::BackendConfig::reram(),
      engine::BackendConfig::stt_mram(),
  };

  struct Row {
    std::string name;
    double accuracy = 0.0;
    std::size_t alive = 0;
    std::size_t acc_outputs = 0;
    double latency_s = 0.0;
    double energy_j = 0.0;
    bool completed = false;
  };
  std::vector<Row> rows;

  const std::size_t budget = smoke ? 2 : 6;
  const std::size_t samples = smoke ? 1 : 3;
  for (const engine::BackendConfig& backend : presets) {
    apps::PreparedModel pm = apps::prepare_model(
        apps::WorkloadId::kHar, apps::Framework::kUnpruned);
    apps::Workload& w = pm.workload;
    core::PruneConfig cfg = w.prune;
    cfg.max_iterations = budget;
    cfg.backend = backend;
    core::IterativePruner pruner(cfg,
                                 std::make_unique<core::IPruneAllocator>());
    const core::PruneOutcome outcome =
        pruner.run(w.graph, w.train.inputs, w.train.labels, w.val.inputs,
                   w.val.labels);
    const bench::MeasuredLatency m = measure_backend(pm, backend, samples);

    Row row;
    row.name = backend.describe();
    row.accuracy = outcome.final_accuracy;
    row.alive = outcome.final_alive_weights;
    row.acc_outputs = outcome.final_acc_outputs;
    row.latency_s = m.latency_s;
    row.energy_j = m.energy_j;
    row.completed = m.completed;
    rows.push_back(row);
  }

  const Row& base = rows.front();
  util::Table table({"Backend", "Accuracy", "dAcc", "Alive weights",
                     "dAlive", "Acc. Outputs", "dOut",
                     "Latency @ weak (s)", "Energy (mJ)"});
  bool all_completed = true;
  for (const Row& row : rows) {
    all_completed = all_completed && row.completed;
    table.row()
        .cell(row.name)
        .cell(util::Table::format(row.accuracy * 100.0, 1) + "%")
        .cell((row.accuracy - base.accuracy >= 0.0 ? "+" : "") +
              util::Table::format((row.accuracy - base.accuracy) * 100.0,
                                  1) + "pp")
        .cell(row.alive)
        .cell(signed_pct(static_cast<double>(row.alive),
                         static_cast<double>(base.alive)))
        .cell(row.acc_outputs)
        .cell(signed_pct(static_cast<double>(row.acc_outputs),
                         static_cast<double>(base.acc_outputs)))
        .cell(util::Table::format(row.latency_s, 3))
        .cell(util::Table::format(row.energy_j * 1e3, 3));
  }
  table.print();

  // The reading is derived from the table above, so it can never claim an
  // effect the measurement does not show.
  std::string moved;
  for (const Row& row : rows) {
    if (row.alive != base.alive || row.acc_outputs != base.acc_outputs) {
      moved += (moved.empty() ? "" : ", ") + row.name + " (dAlive " +
               signed_pct(static_cast<double>(row.alive),
                          static_cast<double>(base.alive)) +
               ", dOut " +
               signed_pct(static_cast<double>(row.acc_outputs),
                          static_cast<double>(base.acc_outputs)) +
               ")";
    }
  }
  std::printf("\nReading the deltas (vs %s, the paper's platform and the "
              "golden-digest oracle): ",
              base.name.c_str());
  if (moved.empty()) {
    std::puts("alive weights and accelerator outputs are identical across "
              "all presets (dAlive and dOut are all zero), so the allocator "
              "did not move; only latency and energy differ, because each "
              "preset's device prices the same pruned model.");
  } else {
    std::printf("the allocator moved under %s.\n", moved.c_str());
  }
  if (!all_completed) {
    std::puts("FAIL: a measured inference did not complete");
    return 1;
  }
  std::printf("backend-matrix: %zu preset(s), budget %zu iteration(s)%s\n",
              rows.size(), budget, smoke ? " [smoke]" : "");
  return 0;
}
