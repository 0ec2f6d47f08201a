// perfbench: one workload per invocation.
//
//   perfbench --workload <scan_recon|viewer_mix|beamline_shift|fleet_campaign>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny] [--baseline]
//             [--spans <path>]
//
// Prints a human-readable report, then as its last line one JSON object:
// correctness, operation counts, run facts and every metric it measured
// (value, unit, sample count). run.py builds this binary and turns that
// line into the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/log.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " [--tiny] [--baseline] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans" && has_value) {
      opt.span_path = argv[++i];
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--baseline") {
      opt.baseline = opt.trace = true;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();

  Result (*run)(const Options&, SpanLog&) = nullptr;
  if (opt.workload == "scan_recon") run = run_scan_recon;
  if (opt.workload == "viewer_mix") run = run_viewer_mix;
  if (opt.workload == "beamline_shift") run = run_beamline_shift;
  if (opt.workload == "fleet_campaign") run = run_fleet_campaign;
  if (!run) return usage();

  const char* threads_env = std::getenv("ALSFLOW_NUM_THREADS");
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, int(opt.trace), opt.tiny ? " (tiny)" : "");
  std::fflush(stdout);

  // Expected faults (the fleet's injected outage) log warnings per
  // campaign; keep stderr to real errors.
  alsflow::set_log_level(alsflow::LogLevel::Error);
  SpanLog spans(opt.trace);
  Result res = run(opt, spans);
  res.fact("workload", opt.workload);
  res.fact("seed", std::to_string(opt.seed));
  res.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  res.fact("pool_threads",
           std::to_string(alsflow::parallel::ThreadPool::global().size()));
  res.fact("ALSFLOW_NUM_THREADS", threads_env ? threads_env : "(unset)");
  res.fact("build_type", PERFBENCH_BUILD_TYPE);
  res.fact("compiler", PERFBENCH_COMPILER);
  if (opt.trace) {
    res.fact("spans", std::to_string(spans.size()));
    if (!opt.span_path.empty() && !spans.write_chrome_json(opt.span_path)) {
      res.gate(false, "write spans to " + opt.span_path);
    }
  }
  res.print_table();
  std::printf("%s\n", res.json().c_str());
  return res.correct() ? 0 : 1;
}
