// fleet_mix: a long-lived heterogeneous fleet in batched sim mode.
//
// Every device runs kInferences inferences, so steady-state advance
// dominates device-stack construction. A cohort-eligible majority
// (tiny/strong/immediate: lockstep BatchedEngine cohorts) runs beside
// four scalar-only groups: seeded random outage schedules, NVM write+read
// corruption with integrity armed, multipath/task/weak, and sub-mW
// constant harvest. This is the only workload that drives fleet, sim,
// BatchedEngine cohorts, fault injection and the corruption-aware NVM
// read path; it uses the engine through many small models.

#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "engine/backend.hpp"
#include "fault/testbed.hpp"
#include "fleet/batched_sim.hpp"
#include "fleet/device_sim.hpp"
#include "fleet/orchestrator.hpp"
#include "util/splitmix.hpp"

namespace perfbench {

namespace {

using namespace iprune;

constexpr std::size_t kDevices = 256;
constexpr std::size_t kInferences = 64;

fleet::DeviceGroup group(const std::string& name, std::size_t count,
                         fleet::ModelKind model, engine::PreservationMode mode,
                         fleet::PowerProfile power) {
  fleet::DeviceGroup g;
  g.name = name;
  g.count = count;
  g.model = model;
  g.mode = mode;
  g.power = std::move(power);
  return g;
}

fleet::FleetSpec make_spec(std::uint64_t seed, fleet::SimKind sim) {
  using engine::PreservationMode;
  using fleet::ModelKind;
  using fleet::PowerProfile;
  fleet::FleetSpec spec;
  spec.seed = util::splitmix64_at(seed, 0);
  spec.inferences = kInferences;
  spec.sim = sim;
  const std::size_t scalar = kDevices * 3 / 32;  // each scalar-only group
  fleet::DeviceGroup outages =
      group("outages", scalar, ModelKind::kTiny, PreservationMode::kImmediate,
            PowerProfile::strong());
  outages.schedule = fault::OutageSchedule::random(
      util::splitmix64_at(seed, 1), 1.0e-2, 16);
  fleet::DeviceGroup corrupt =
      group("corrupt", scalar, ModelKind::kTiny, PreservationMode::kImmediate,
            PowerProfile::strong());
  // Rates at which the integrity layer rolls back torn progress records
  // but no device is compromised (a compromised device counts as failed).
  corrupt.write_ber = 1.0e-4;
  corrupt.read_ber = 1.0e-9;
  spec.groups = {
      group("cohort", kDevices - 4 * scalar, ModelKind::kTiny,
            PreservationMode::kImmediate, PowerProfile::strong()),
      outages,
      corrupt,
      group("multipath", scalar, ModelKind::kMultipath,
            PreservationMode::kTaskAtomic, PowerProfile::weak()),
      group("submw", scalar, ModelKind::kTiny, PreservationMode::kImmediate,
            PowerProfile::constant(5.0e-4)),
  };
  return spec;
}

/// Folds what FleetResult does not aggregate: integrity rollbacks,
/// verdicts, NVM traffic and each device's last served logits.
class CollectGateway final : public fleet::MetricsGateway {
 public:
  std::size_t rollbacks = 0;
  std::size_t compromised = 0;
  std::size_t nvm_read = 0;
  std::size_t nvm_written = 0;
  std::vector<std::vector<float>> last_logits;
  std::vector<bool> failed;

  void on_device(const fleet::DeviceResult& r) override {
    rollbacks += r.integrity_rollbacks;
    compromised +=
        r.verdict == fleet::IntegrityVerdict::kCompromised ? 1 : 0;
    nvm_read += r.nvm_bytes_read;
    nvm_written += r.nvm_bytes_written;
    last_logits.push_back(r.last_logits);
    failed.push_back(r.failed || !r.completed);
  }
  void on_fleet(const fleet::FleetResult&) override {}
  [[nodiscard]] std::string describe() const override { return "collect"; }
};

nn::Graph build_graph(fleet::ModelKind model, util::Rng& rng) {
  return model == fleet::ModelKind::kTiny ? fault::make_tiny_graph(rng)
                                          : fault::make_multipath_graph(rng);
}

/// Top-1 class of the float model on a device's last sample, rebuilt from
/// its DeviceSpec the way fleet::DeviceSim builds it (graph, then the
/// calibration batch, then the samples, all from Rng(model_seed)).
std::size_t reference_class(const fleet::DeviceSpec& spec) {
  constexpr std::size_t kCalibrationSamples = 8;
  util::Rng rng(spec.model_seed);
  const nn::Graph graph = build_graph(spec.model, rng);
  (void)fault::make_batch(rng, graph, kCalibrationSamples);
  const nn::Tensor samples = fault::make_batch(rng, graph, spec.inferences);
  nn::Tensor last = fault::slice_sample(samples, spec.inferences - 1);
  nn::Shape shape = {1};
  shape.insert(shape.end(), last.shape().begin(), last.shape().end());
  const nn::Tensor out =
      graph.infer(nn::Tensor(shape, {last.values().begin(),
                                     last.values().end()}));
  return argmax({out.values().begin(), out.values().end()});
}

/// Deployed model bytes and accelerator outputs of one model kind (they
/// depend on the architecture only: fleet models are unpruned).
std::pair<std::size_t, std::size_t> model_size(fleet::ModelKind model) {
  util::Rng rng(1);
  nn::Graph graph = build_graph(model, rng);
  const nn::Tensor calibration = fault::make_batch(rng, graph, 8);
  engine::FunctionalBackend backend;
  engine::DeployedModel deployed(graph, engine::EngineConfig{}, backend,
                                 calibration);
  return {deployed.model_bytes(), deployed.total_acc_outputs()};
}

struct TimedRun {
  fleet::FleetResult result;
  double seconds = 0.0;
};

TimedRun timed_run(const fleet::FleetSpec& spec, runtime::ThreadPool* pool,
                   fleet::MetricsGateway* gateway = nullptr) {
  const fleet::FleetOrchestrator orchestrator(spec);
  const Clock::time_point t0 = Clock::now();
  TimedRun run;
  run.result = orchestrator.run(pool, gateway);
  run.seconds = seconds_since(t0);
  return run;
}

/// Median host time of kProbeRepeats traced runs of `spec`; the result
/// returned is the last run's.
TimedRun median_run(const fleet::FleetSpec& spec, runtime::ThreadPool* pool,
                    Tracer& tracer, const std::string& name) {
  constexpr int kProbeRepeats = 3;
  std::vector<double> seconds;
  TimedRun run;
  for (int i = 0; i < kProbeRepeats; ++i) {
    Scope span(tracer, name);
    run = timed_run(spec, pool);
    seconds.push_back(run.seconds);
  }
  run.seconds = median(seconds);
  return run;
}

}  // namespace

Report run_fleet_mix(const Options& options, Tracer& tracer) {
  Report report;
  tracer.enabled = options.trace;
  runtime::ThreadPool& pool = runtime::ThreadPool::shared();

  // Set-up: read the fleet spec from its text form, resolve it into
  // per-device specs, and build (then tear down) every device's stack:
  // graph, calibration and deployment. The orchestrator repeats all of
  // this inside every pass; here it is timed on its own.
  const std::string spec_text =
      make_spec(options.seed, fleet::SimKind::kBatched).describe();
  std::vector<double> setup_s;
  fleet::FleetSpec spec;
  std::vector<fleet::DeviceSpec> devices;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    spec = fleet::FleetSpec::parse(spec_text);
    {
      Scope span(tracer, "fleet.resolve");
      devices = spec.resolve();
    }
    {
      Scope span(tracer, "fleet.build_devices");
      for (const fleet::DeviceSpec& device : devices) {
        const fleet::DeviceSim sim(device);
      }
    }
    setup_s.push_back(seconds_since(t0));
  }

  // Closed loop of whole-fleet passes on the fixed lane count.
  std::vector<double> pass_s, traced_s, untraced_s, per_inference_ms;
  std::uint64_t inferences = 0, events = 0, attempted = 0, failed = 0;
  std::uint64_t digest = 0;
  bool digest_repeats = true;
  CollectGateway first;
  fleet::FleetResult first_result;
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t pass = 0;
       pass < 3 || seconds_since(loop_start) < options.seconds; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    tracer.enabled = traced;
    tracer.run = static_cast<int>(pass);
    CollectGateway gateway;
    TimedRun run;
    {
      Scope span(tracer, "fleet.run");
      run = timed_run(spec, &pool, &gateway);
    }
    const fleet::GroupStats& total = run.result.total;
    pass_s.push_back(run.seconds);
    (traced ? traced_s : untraced_s).push_back(run.seconds);
    per_inference_ms.push_back(run.seconds * 1e3 /
                               static_cast<double>(total.inferences));
    inferences += total.inferences;
    events += total.events;
    attempted += total.devices;
    failed += total.devices - total.completed;
    if (pass == 0) {
      digest = run.result.checksum;
      first = std::move(gateway);
      first_result = std::move(run.result);
    } else {
      digest_repeats = digest_repeats && run.result.checksum == digest;
    }
  }
  const double loop_s = seconds_since(loop_start);
  tracer.enabled = false;

  // Output check: the digest repeats pass to pass. A device that did not
  // complete (failed, compromised or out of time) counts as failed.
  // Accuracy: each device's last served logits pick the float model's class.
  report.check(digest_repeats, "fleet digest changed between passes");
  std::size_t agree = 0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    agree += !first.failed[i] &&
                     argmax(first.last_logits[i]) == reference_class(devices[i])
                 ? 1
                 : 0;
  }
  double bytes = 0.0, outputs = 0.0;
  {
    const auto tiny = model_size(fleet::ModelKind::kTiny);
    const auto multipath = model_size(fleet::ModelKind::kMultipath);
    for (const fleet::DeviceSpec& d : devices) {
      const auto& size = d.model == fleet::ModelKind::kTiny ? tiny : multipath;
      bytes += static_cast<double>(size.first);
      outputs += static_cast<double>(size.second);
    }
  }
  const auto n_devices = static_cast<double>(devices.size());
  const fleet::GroupStats& total = first_result.total;
  char digest_text[32];
  std::snprintf(digest_text, sizeof digest_text, "%016llx",
                static_cast<unsigned long long>(digest));
  report.attempted = attempted;
  report.failed = failed;
  for (const auto& g : first_result.groups) {
    report.notes.push_back(
        g.name + ": devices " + std::to_string(g.devices) + ", completed " +
        std::to_string(g.completed) + ", compromised " +
        std::to_string(g.compromised) + ", events " +
        std::to_string(g.events) + ", brown-outs " +
        std::to_string(g.power_failures) + ", injected outages " +
        std::to_string(g.injected_outages));
  }
  report.notes.push_back(
      "passes " + std::to_string(pass_s.size()) + ", devices " +
      std::to_string(devices.size()) + " x " + std::to_string(kInferences) +
      " inferences, events per pass " + std::to_string(total.events) +
      ", digest " + digest_text);

  const auto n_inf = static_cast<double>(total.inferences);
  report.e2e("setup_s", median(setup_s), "s");
  report.e2e("pipeline_s", median(pass_s), "s");
  double run_total_s = 0.0;
  for (const double s : pass_s) {
    run_total_s += s;
  }
  report.e2e("infer_per_s", static_cast<double>(inferences) / run_total_s,
             "1/s");
  report.e2e("infer_ms_p50", quantile(per_inference_ms, 0.50), "ms");
  report.e2e("infer_ms_p95", quantile(per_inference_ms, 0.95), "ms");
  report.e2e("fleet_inferences_per_s",
             static_cast<double>(inferences) / loop_s, "1/s");
  report.e2e("sim_events_per_s", static_cast<double>(events) / loop_s, "1/s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  report.e2e("sim_latency_s", total.latency_us.mean() * 1e-6, "s");
  report.e2e("sim_energy_mj", total.consumed_j * 1e3 / n_inf, "mJ");
  report.e2e("accuracy", static_cast<double>(agree) / n_devices, "share");
  report.e2e("model_bytes", bytes / n_devices, "B");
  report.e2e("acc_outputs", outputs / n_devices, "count");

  if (!options.trace) {
    return report;
  }

  // Per-layer probes, each on its own spec with the same seed.
  tracer.enabled = true;
  tracer.run = static_cast<int>(pass_s.size());
  std::size_t eligible = 0;
  for (const fleet::DeviceSpec& d : devices) {
    eligible += fleet::batched_eligible(d) ? 1 : 0;
  }
  for (const fleet::DeviceGroup& g : spec.groups) {
    fleet::FleetSpec alone = spec;
    alone.groups = {g};
    const TimedRun run =
        median_run(alone, &pool, tracer, "fleet.group." + g.name);
    report.layer("fleet.group." + g.name + ".host_s", run.seconds, "s");
    report.layer("fleet.group." + g.name + ".events_per_s",
                 static_cast<double>(run.result.total.events) / run.seconds,
                 "1/s");
  }
  const double batched_s = median(untraced_s);
  const TimedRun stepping =
      median_run(make_spec(options.seed, fleet::SimKind::kStepping), &pool,
                 tracer, "fleet.stepping");
  report.check(stepping.result.checksum == digest,
               "batched fleet digest differs from the stepping oracle");
  report.layer("fleet.batched_speedup", stepping.seconds / batched_s, "x");
  // The scheduler sim mode is looked up by name so the benchmark still
  // builds, and reports 0, if that mode is removed.
  try {
    const fleet::SimKind kind = fleet::parse_sim_kind("scheduler");
    const TimedRun run = median_run(make_spec(options.seed, kind), &pool,
                                    tracer, "fleet.scheduler");
    report.check(run.result.checksum == digest,
                 "scheduler fleet digest differs from batched");
    report.layer("sim.scheduler_speedup", stepping.seconds / run.seconds, "x");
  } catch (const std::invalid_argument&) {
    report.notes.push_back("no scheduler sim mode; sim.scheduler_speedup 0");
  }
  {
    runtime::ThreadPool one(1);
    const TimedRun run = median_run(spec, &one, tracer, "fleet.one_lane");
    report.check(run.result.checksum == digest,
                 "one-lane fleet digest differs");
    report.layer("runtime.lane_scaling", run.seconds / batched_s, "x");
  }
  tracer.enabled = false;

  report.layer("trace.overhead_share", median(traced_s) / batched_s - 1.0,
               "share");
  report.layer("fleet.resolve_ms",
               median(tracer.durations("fleet.resolve")) * 1e3, "ms");
  report.layer("fleet.cohort_share",
               static_cast<double>(eligible) / n_devices, "share");
  report.layer("fleet.compromised", static_cast<double>(first.compromised),
               "count");
  report.layer("fault.injected_outages",
               static_cast<double>(total.injected_outages), "count");
  report.layer("engine.integrity_rollbacks",
               static_cast<double>(first.rollbacks), "count");
  report.layer("engine.nvm_read_kb",
               static_cast<double>(first.nvm_read) / 1024.0 / n_inf, "KiB");
  report.layer("engine.nvm_write_kb",
               static_cast<double>(first.nvm_written) / 1024.0 / n_inf, "KiB");
  report.layer("power.failures",
               static_cast<double>(total.power_failures) / n_inf, "count");
  report.layer("power.sim_off_s", total.off_s / n_inf, "s");
  return report;
}

}  // namespace perfbench
