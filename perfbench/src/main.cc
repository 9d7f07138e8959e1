// svabench: the repository benchmark's binary.
//
//   svabench --workload syscall_mix|http_c10k|bytecode_exec --seed N
//            --seconds S --trace 0|1 [--ops N] [--disarm-canary]
//            [--span-dir DIR]
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --ops N runs exactly N operations (rounded up to whole chunks) and adds a
// "digests" object, for the determinism tests. Exit status: 0 when every
// output was right, 1 on a wrong output or a missed canary, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: svabench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--ops N] [--disarm-canary] [--span-dir DIR]\n");
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  svabench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--ops") {
      options.ops = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--disarm-canary") {
      options.disarm_canary = true;
    } else if (arg == "--span-dir") {
      options.span_dir = value();
    } else {
      Usage();
    }
  }
  if (options.seconds <= 0) {
    Usage();
  }

  svabench::RunResult result;
  if (options.workload == "syscall_mix") {
    result = svabench::RunSyscallMix(options);
  } else if (options.workload == "http_c10k") {
    result = svabench::RunHttpC10k(options);
  } else if (options.workload == "bytecode_exec") {
    result = svabench::RunBytecodeExec(options);
  } else {
    Usage();
  }

  for (const std::string& line : result.info) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  const bool correct = result.failed == 0 && result.integrity_ok;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : result.metrics) {
    std::snprintf(number, sizeof(number), "%.17g", metric.value);
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            number + ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}";
  if (!result.digests.empty()) {
    json += ", \"digests\": {";
    first = true;
    for (const auto& [name, value] : result.digests) {
      json += (first ? "" : ", ") + JsonString(name) + ": " +
              std::to_string(value);
      first = false;
    }
    json += "}";
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
