#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "util/hash.hpp"

namespace perfbench {

std::size_t lanes() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(kLanes, hw);
}

namespace {

std::vector<int> thread_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void set_thread_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  // Failure leaves the thread where it was, which only costs steadiness.
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

std::vector<int> allowed_cpus() {
  std::vector<int> cpus = thread_cpus();
  if (cpus.empty()) {
    cpus.push_back(0);
  }
  return cpus;
}

CpuPin::CpuPin(int cpu) : previous_(thread_cpus()) {
  set_thread_cpus({cpu});
}

CpuPin::~CpuPin() {
  if (!previous_.empty()) {
    set_thread_cpus(previous_);
  }
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SimTotals::add(const iprune::engine::InferenceStats& stats) {
  ++inferences;
  incomplete += stats.completed ? 0 : 1;
  latency_s += stats.latency_s;
  energy_j += stats.energy_j;
  off_s += stats.off_s;
  nvm_read_s += stats.nvm_read_s;
  nvm_write_s += stats.nvm_write_s;
  lea_s += stats.lea_s;
  cpu_s += stats.cpu_s;
  reboot_s += stats.reboot_s;
  power_failures += stats.power_failures;
  reexecuted_jobs += stats.reexecuted_jobs;
  preserved_outputs += stats.preserved_outputs;
  integrity_rollbacks += stats.integrity_rollbacks;
  nvm_bytes_read += stats.nvm_bytes_read;
  nvm_bytes_written += stats.nvm_bytes_written;
}

void SimTotals::merge(const SimTotals& o) {
  inferences += o.inferences;
  incomplete += o.incomplete;
  latency_s += o.latency_s;
  energy_j += o.energy_j;
  off_s += o.off_s;
  nvm_read_s += o.nvm_read_s;
  nvm_write_s += o.nvm_write_s;
  lea_s += o.lea_s;
  cpu_s += o.cpu_s;
  reboot_s += o.reboot_s;
  power_failures += o.power_failures;
  reexecuted_jobs += o.reexecuted_jobs;
  preserved_outputs += o.preserved_outputs;
  integrity_rollbacks += o.integrity_rollbacks;
  nvm_bytes_read += o.nvm_bytes_read;
  nvm_bytes_written += o.nvm_bytes_written;
  dma_commands += o.dma_commands;
  lea_invocations += o.lea_invocations;
}

void SimTotals::add_device(const iprune::device::DeviceStats& before,
                           const iprune::device::DeviceStats& after) {
  dma_commands += after.dma_commands - before.dma_commands;
  lea_invocations += after.lea_invocations - before.lea_invocations;
}

void SimTotals::report_layers(Report& report) const {
  const double n = static_cast<double>(std::max<std::size_t>(inferences, 1));
  report.layer("engine.reexec_share",
               preserved_outputs == 0
                   ? 0.0
                   : static_cast<double>(reexecuted_jobs) /
                         static_cast<double>(preserved_outputs),
               "share");
  report.layer("engine.nvm_read_kb",
               static_cast<double>(nvm_bytes_read) / 1024.0 / n, "KiB");
  report.layer("engine.nvm_write_kb",
               static_cast<double>(nvm_bytes_written) / 1024.0 / n, "KiB");
  report.layer("engine.sim_nvm_read_s", nvm_read_s / n, "s");
  report.layer("engine.sim_nvm_write_s", nvm_write_s / n, "s");
  report.layer("engine.sim_lea_s", lea_s / n, "s");
  report.layer("engine.sim_cpu_s", cpu_s / n, "s");
  report.layer("engine.sim_reboot_s", reboot_s / n, "s");
  report.layer("engine.integrity_rollbacks",
               static_cast<double>(integrity_rollbacks), "count");
  report.layer("device.dma_commands", static_cast<double>(dma_commands) / n,
               "count");
  report.layer("device.lea_invocations",
               static_cast<double>(lea_invocations) / n, "count");
  report.layer("power.failures", static_cast<double>(power_failures) / n,
               "count");
  report.layer("power.sim_off_s", off_s / n, "s");
}

std::uint64_t logits_digest(const std::vector<float>& logits) {
  iprune::util::Fnv1a digest;
  digest.fold_f32(logits.data(), logits.size());
  return digest.value();
}

std::size_t argmax(const std::vector<float>& logits) {
  return static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

int Tracer::begin(const std::string& name) {
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: spans must close in LIFO order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span.seconds());
    }
  }
  return out;
}

std::map<int, double> Tracer::totals_per_run(const std::string& name) const {
  std::map<int, double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out[span.run] += span.seconds();
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"run\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.run);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
