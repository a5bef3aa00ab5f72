// The benchmark harness: runs one workload and prints, as the last line of
// standard output, one JSON object with the check outcome, the operation
// counts and the metrics (end-to-end without --trace, per-layer with it).
//
// Usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                          [--trace-out FILE] [--inject flip|drop|dup]
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error.
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace {

using namespace perfbench;

// Every run prints every metric of its family, in this order.  A workload
// leaves out a layer metric it does not exercise; it is printed as 0 with
// the unit listed here.
constexpr const char* kEndToEnd[] = {
    "setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms",
    "latency_tail_ms"};

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kPerLayer[] = {
    {"wire.parse_full_us", "us"},
    {"wire.parse_delta_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.service_full_ms", "ms"},
    {"serve.service_delta_us", "us"},
    {"serve.full_latency_p50_ms", "ms"},
    {"serve.full_latency_p90_ms", "ms"},
    {"serve.delta_latency_p50_ms", "ms"},
    {"serve.delta_latency_p99_ms", "ms"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.lag_max_ms", "ms"},
    {"atlas.build_ms_per_block", "ms"},
    {"atlas.hit_ns", "ns"},
    {"atlas.misses", "count"},
    {"atlas.evictions", "count"},
    {"atlas.bypassed", "count"},
    {"atlas.hit_rate", "ratio"},
    {"stage2.parse_link_ms", "ms"},
    {"stage2.parse_link_ms.t1", "ms"},
    {"stage2.parse_link_ms.t2", "ms"},
    {"stage2.parse_link_ms.t4", "ms"},
    {"stage2.parse_link_ms.t8", "ms"},
    {"stage2.parse_ms", "ms"},
    {"stage2.link_ms", "ms"},
    {"stage2.parse_ms.t1", "ms"},
    {"stage2.parse_ms.t2", "ms"},
    {"stage2.parse_ms.t4", "ms"},
    {"stage2.parse_ms.t8", "ms"},
    {"stage2.link_ms.t1", "ms"},
    {"stage2.link_ms.t2", "ms"},
    {"stage2.link_ms.t4", "ms"},
    {"stage2.link_ms.t8", "ms"},
    {"stage3.sweep_ms", "ms"},
    {"stage3.verify_ball_us", "us"},
    {"stage3.sweep_ms.t1", "ms"},
    {"stage3.sweep_ms.t2", "ms"},
    {"stage3.sweep_ms.t4", "ms"},
    {"stage3.sweep_ms.t8", "ms"},
    {"stage3.verify_ball_us.t1", "us"},
    {"stage3.verify_ball_us.t2", "us"},
    {"stage3.verify_ball_us.t4", "us"},
    {"stage3.verify_ball_us.t8", "us"},
    {"engine.verify_1round_ms", "ms"},
    {"pool.claim_ns_per_chunk", "ns"},
    {"pool.steal_share", "ratio"},
    {"pool.slot_utilization", "ratio"},
    {"delta.collect_us", "us"},
    {"delta.relink_us", "us"},
    {"delta.resweep_us", "us"},
    {"delta.dirty_centers", "count"},
    {"delta.certs_reparsed", "count"},
    {"delta.centers_reswept", "count"},
    {"delta.link_reseeds", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

bool parse_args(int argc, char** argv, Options& options) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    kv[flag.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [key, value] : kv) {
      std::size_t pos = 0;
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value, &pos);
        if (pos != value.size() || value[0] == '-') return false;
      } else if (key == "seconds") {
        options.seconds = std::stod(value, &pos);
        if (pos != value.size() || !(options.seconds > 0.0)) return false;
      } else if (key == "trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else if (key == "trace-out") {
        options.trace_out = value;
      } else if (key == "inject") {
        if (value == "flip") options.inject = Inject::kFlip;
        else if (value == "drop") options.inject = Inject::kDrop;
        else if (value == "dup") options.inject = Inject::kDup;
        else return false;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return !options.workload.empty();
}

void print_result(const Report& report, bool trace) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : trace ? report.per_layer : report.end_to_end) {
    if (!by_name.emplace(m.name, m).second)
      throw std::logic_error("metric reported twice: " + m.name);
  }
  std::set<std::string> known;
  obs::JsonWriter json(std::cout, 0);
  json.begin_object();
  json.kv("correct", report.correct);
  json.kv("attempted", report.attempted);
  json.kv("failed", report.failed);
  json.key("metrics");
  json.begin_object();
  const auto emit = [&](const std::string& name, const Metric* m,
                        const std::string& unit) {
    json.key(name);
    json.begin_object();
    json.kv("value", m != nullptr ? m->value : 0.0);
    json.kv("unit", m != nullptr ? m->unit : unit);
    json.end_object();
    known.insert(name);
  };
  if (trace) {
    for (const LayerMetric& layer : kPerLayer) {
      const auto it = by_name.find(layer.name);
      emit(layer.name, it == by_name.end() ? nullptr : &it->second,
           layer.unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = by_name.find(name);
      if (it == by_name.end())
        throw std::logic_error(std::string("end-to-end metric missing: ") +
                               name);
      emit(name, &it->second, it->second.unit);
    }
  }
  for (const auto& [name, m] : by_name)
    if (known.count(name) == 0)
      throw std::logic_error("metric not in the benchmark's list: " + name);
  json.end_object();
  json.end_object();
  std::cout << std::flush;  // the writer ends the document with a newline
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: perfbench_harness --workload batch_t8|delta_stream|"
                 "serve_open_loop --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--inject flip|drop|dup]\n";
    return 2;
  }
  Report report;
  if (options.workload == "batch_t8") {
    report = run_batch_t8(options);
  } else if (options.workload == "delta_stream") {
    report = run_delta_stream(options);
  } else if (options.workload == "serve_open_loop") {
    report = run_serve_open_loop(options);
  } else {
    std::cerr << "unknown workload: " << options.workload << "\n";
    return 2;
  }
  if (options.trace) {
    // Spans recorded in the traced window, the program's own among them;
    // the file keeps the last kTraceRing of each thread.
    const std::size_t kept = obs::TraceRecorder::events().size();
    const std::uint64_t spans = kept + obs::TraceRecorder::dropped();
    report.layer("trace.spans", static_cast<double>(spans), "count");
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      obs::TraceRecorder::export_chrome_trace(out);
      if (!out) {
        std::cerr << "cannot write trace " << options.trace_out << "\n";
        return 1;
      }
      std::cerr << "trace: " << spans << " spans, " << kept << " kept -> "
                << options.trace_out << "\n";
    }
  }
  for (const std::string& problem : report.problems)
    std::cerr << "CHECK FAILED: " << problem << "\n";
  print_result(report, options.trace);
  return report.correct ? 0 : 1;
}
