#pragma once
// Shared plumbing of the repository benchmark: options, the metric report,
// host clocks, order statistics and the span tracer.
//
// Spans are recorded only here, around the benchmark's calls into the
// library's public functions; nothing inside src/ is instrumented.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/msp430.hpp"
#include "engine/engine.hpp"

namespace perfbench {

/// Fixed host lane count for every workload: one process, at most this
/// many threads doing work. Two of a 4-vCPU machine's lanes leave room for
/// the rest of the system, which keeps run-to-run spread low.
inline constexpr std::size_t kLanes = 2;

/// Lanes actually used: kLanes, capped by the machine's hardware threads.
std::size_t lanes();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON path ("" = do not write)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run measured and checked.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed output check; empty = all checks passed.
  std::vector<std::string> check_failures;
  /// Informational lines printed above the JSON result.
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();

/// Pins the calling thread to one CPU while alive and then restores the
/// thread's previous CPU set. A shared host slows each of its virtual CPUs
/// on its own schedule (another tenant's work on the same core), so the
/// timed loops pin each pass to the next CPU in turn: every repeat is then
/// measured on every CPU, and the fastest repeat leaves the slowed ones
/// out. Threads started while a pin is held inherit it, so pin only
/// around work that starts none.
class CpuPin {
 public:
  explicit CpuPin(int cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  std::vector<int> previous_;
};

/// Median (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> values);
/// Linear-interpolated q-quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// In-memory span recorder. A span has a name, host start/end, the span
/// that was open when it began (its parent), and the id of the workload
/// pass it belongs to. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
    [[nodiscard]] double seconds() const {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  bool enabled = false;
  /// Pass id stamped on spans that begin from now on.
  int run = 0;

  int begin(const std::string& name);
  void end(int id);

  /// Durations (seconds) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Sum of durations of spans with this name, per pass id.
  [[nodiscard]] std::map<int, double> totals_per_run(
      const std::string& name) const;

  /// Write the spans as Chrome trace-event JSON (complete events; span id,
  /// parent and pass id in args). Returns false if the file can't be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.enabled ? tracer.begin(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) {
      tracer_.end(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Sums of the engine's per-inference statistics over a set of inferences,
/// plus the device counters they advanced.
struct SimTotals {
  std::size_t inferences = 0;
  std::size_t incomplete = 0;
  double latency_s = 0.0;
  double energy_j = 0.0;
  double off_s = 0.0;
  double nvm_read_s = 0.0;
  double nvm_write_s = 0.0;
  double lea_s = 0.0;
  double cpu_s = 0.0;
  double reboot_s = 0.0;
  std::size_t power_failures = 0;
  std::size_t reexecuted_jobs = 0;
  std::size_t preserved_outputs = 0;
  std::size_t integrity_rollbacks = 0;
  std::size_t nvm_bytes_read = 0;
  std::size_t nvm_bytes_written = 0;
  std::size_t dma_commands = 0;
  std::size_t lea_invocations = 0;

  void add(const iprune::engine::InferenceStats& stats);
  void merge(const SimTotals& other);
  /// Add the device-counter advance between two stats snapshots.
  void add_device(const iprune::device::DeviceStats& before,
                  const iprune::device::DeviceStats& after);
  /// Per-inference engine/device/power layer metrics into `report`.
  void report_layers(Report& report) const;
};

/// FNV-1a over logits, for run-to-run and cross-backend comparisons.
std::uint64_t logits_digest(const std::vector<float>& logits);

/// Index of the largest logit (first on ties).
std::size_t argmax(const std::vector<float>& logits);

/// Set-up repeats per run; set-up time is reported as their median.
inline constexpr int kSetupRepeats = 5;

Report run_prune_har(const Options& options, Tracer& tracer);
Report run_infer_sqn(const Options& options, Tracer& tracer);
Report run_fleet_mix(const Options& options, Tracer& tracer);

}  // namespace perfbench
