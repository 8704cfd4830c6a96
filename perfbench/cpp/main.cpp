// soda_perfbench: runs one benchmark workload for a fixed host-time budget
// and prints what it measured as protocol lines (see probe.hpp). The
// workload seed never reaches this program; perfbench/run.py turns it into
// the concrete inputs passed with --input.
//
//   soda_perfbench <traffic_flash_crowd|fleet_lifecycle|chaos_sweep>
//       --seconds S --trace 0|1 [--trace-out FILE] --input TOKEN...
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "probe.hpp"
#include "util/log.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: soda_perfbench <traffic_flash_crowd|fleet_lifecycle|"
               "chaos_sweep> --seconds S --trace 0|1 [--trace-out FILE] "
               "--input TOKEN...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options options;
  options.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--input") {
      options.inputs.emplace_back(value);
    } else {
      return usage();
    }
  }
  if (options.inputs.empty() || !(options.seconds > 0)) return usage();
  soda::util::global_logger().set_level(soda::util::LogLevel::kOff);

  JsonObject build;
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  build.add("build_type", PERFBENCH_BUILD_TYPE).add("compiler", compiler);
  build.print("build");

  if (options.workload == "traffic_flash_crowd") return run_traffic(options);
  if (options.workload == "fleet_lifecycle") return run_fleet(options);
  if (options.workload == "chaos_sweep") return run_chaos(options);
  return usage();
}
