// perfbench runner: runs one workload for a fixed time, checks the
// outputs, and prints one JSON result object as its last line of stdout.
//
//   perfbench_runner --workload kv-update|kv-scan --seed N
//                    --seconds S --trace 0|1 [--span-dir DIR]
//                    [--plant-wrong-read]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the ladder and
// the wire section, then an untraced and a traced phase of S/2 seconds
// each, and reports the per-layer metrics. run.py builds this program and
// wraps it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print(const perfbench::Result& r) {
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    out += (first ? "\"" : ", \"") + json_escape(name) +
           "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "kv-update|kv-scan --seed N --seconds S --trace "
               "0|1 [--span-dir DIR] [--plant-wrong-read]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = val();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(val().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = val() == "1";
    } else if (a == "--span-dir") {
      opt.span_dir = val();
    } else if (a == "--plant-wrong-read") {
      opt.plant_wrong_read = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");
  try {
    perfbench::Result r;
    if (opt.workload == "kv-update" || opt.workload == "kv-scan") {
      r = perfbench::run_kv(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    std::fflush(stderr);
    print(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
