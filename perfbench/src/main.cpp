// perfbench: the repository benchmark.
//
//   perfbench --workload prune_har|infer_sqn|fleet_mix --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one closed-loop workload for about S host seconds on a fixed lane
// count, checks its outputs, and prints a metric table followed by one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics (untraced); --trace 1 reports the
// per-layer metrics the workload exercises and the tracing overhead from a
// traced run. Exit status is 0 only when every output check passed.
// run.py checks the metrics against BENCHMARK.json; see README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "prune_har|infer_sqn|fleet_mix --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workload.empty()) {
    usage("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return options;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse_args(argc, argv);
  // The library's shared pool (sensitivity probes, fleet lanes) reads its
  // lane count from the environment on first use.
  setenv("IPRUNE_THREADS", std::to_string(perfbench::lanes()).c_str(), 1);

  perfbench::Tracer tracer;
  perfbench::Report report;
  try {
    if (options.workload == "prune_har") {
      report = perfbench::run_prune_har(options, tracer);
    } else if (options.workload == "infer_sqn") {
      report = perfbench::run_infer_sqn(options, tracer);
    } else if (options.workload == "fleet_mix") {
      report = perfbench::run_fleet_mix(options, tracer);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  if (options.trace && !options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 1;
  }

  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::printf("workload %s  seed %llu  lanes %zu  %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              perfbench::lanes(), options.trace ? "traced" : "untraced");
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-36s %18.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& failure : report.check_failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.check_failures.empty();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
            value + ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
