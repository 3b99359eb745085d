// htgbench: runs one workload against the htgdb engine and prints its
// metrics, ending with one JSON result line.
//
//   htgbench --workload <dge-bin|reseq-workflow|server-mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--scale <x>] [--selftest]
//            [--out <dir>] [--part <k>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every layer call and prints the per-layer metrics instead.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  fprintf(stderr,
          "htgbench: %s\nusage: htgbench --workload "
          "<dge-bin|reseq-workflow|server-mixed> --seed <n> --seconds <s> "
          "--trace <0|1> [--scale <x>] [--selftest] [--out <dir>] "
          "[--part <k>]\n",
          why);
  exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  htgbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--scale") {
      options.scale = atof(value().c_str());
    } else if (arg == "--selftest") {
      options.selftest = true;
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--part") {
      options.part = atoi(value().c_str());
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0 || options.scale <= 0) {
    Usage("--seconds and --scale must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) Usage(("cannot create " + options.out_dir).c_str());

  htgbench::Tracer::Global().set_enabled(options.trace);
  htgbench::Checker checker(options.selftest);
  htgbench::Report report(options, &checker);
  if (options.workload == "dge-bin") {
    htgbench::RunDgeBin(options, &checker, &report);
  } else if (options.workload == "reseq-workflow") {
    htgbench::RunReseqWorkflow(options, &checker, &report);
  } else if (options.workload == "server-mixed") {
    htgbench::RunServerMixed(options, &checker, &report);
  } else {
    Usage("unknown workload");
  }
  report.Finish();
  return 0;
}
