// perfbench — wall-clock benchmark of confidential logging, auditing and
// integrity. Usage:
//
//   perfbench --workload <ingest|audit|mixed|loopback> --seed <n>
//             --seconds <s> --trace <0|1> [--scratch <dir>] [--noded <path>]
//
// Prints human-readable tables, then as its last line one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits non-zero when any result disagrees with the plaintext oracle.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

bool parse(int argc, char** argv, pb::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--scratch") a.scratch = v;
    else if (flag == "--noded") a.noded = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scratch <dir>] [--noded <path>]\n");
    return 2;
  }
  pb::Result r;
  try {
    r = args.workload == "loopback"
            ? pb::run_loopback(args)
            : pb::run_sim_workload(args, pb::workload_config(args.workload));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  r.correct = r.problems.empty();
  for (const auto& p : r.problems) std::fprintf(stderr, "MISMATCH: %s\n", p.c_str());
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    json += (i ? ", \"" : "\"") + json_escape(name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + json_escape(vu.second) + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
