// perfbench: the exploration benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only]
//
// Prints the environment, sets the workload up (registry resolution and one
// warm-up pass), prints `ready`, then measures: end-to-end metrics through
// Session::run with --trace 0, per-layer metrics with --trace 1. run.py
// builds this binary, gates its counts and prints the final result line.

#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "explore/explorer.hpp"
#include "programs/registry.hpp"
#include "runtime/execution.hpp"
#include "runtime/fiber.hpp"

namespace {

using namespace perfbench;

constexpr int kExitUsage = 2;
constexpr int kExitRefused = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool setupOnly = false;
};

bool parseArgs(int argc, char** argv, Args& args) {
  bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setupOnly = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      haveSeed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      haveSeconds = *value != '\0' && *end == '\0' && args.seconds >= 0.0;
    } else if (flag == "--trace") {
      haveTrace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return haveWorkload && haveSeed && haveSeconds && haveTrace;
}

/// Processors this process may run on (the affinity mask, not the host).
int usableProcessors() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string cpuModel() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model = brand;
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

/// Why this build or environment would measure a different program, or
/// empty when it is fit to measure.
std::string refusal() {
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF") return "sanitizer build (" + sanitize + ")";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if !defined(LAZYHB_FAST_FIBER)
  return "ucontext fiber backend";
#endif
  if (!lazyhb::runtime::Execution::checkpointingSupported()) {
    return "fiber snapshots unsupported in this build";
  }
  if (std::getenv("LAZYHB_SNAPSHOT_BUDGET") != nullptr) {
    return "LAZYHB_SNAPSHOT_BUDGET is set (it changes the program measured)";
  }
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "unoptimised build (" + type + ")";
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  // Pin glibc's allocation thresholds to the values its dynamic policy
  // reaches after the process frees its first 1 MiB block. Otherwise
  // whether the engine's 128 KiB fiber stacks come from the heap or from
  // fresh mmaps depends on allocation history, which the worker threads of
  // a sharded search make nondeterministic; that alone moved hunt latency
  // fourfold between otherwise identical runs.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 2 << 20);
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--setup-only]\n");
    return kExitUsage;
  }

  const int processors = usableProcessors();
  std::printf("env: nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s fiber=%s "
              "snapshot_budget=%llu\n",
              processors, cpuModel().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
#if defined(LAZYHB_FAST_FIBER)
              "fast-switch",
#else
              "ucontext",
#endif
              static_cast<unsigned long long>(lazyhb::explore::defaultSnapshotBudgetBytes()));
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
    return kExitRefused;
  }

  const auto workload =
      makeWorkload(args.workload, args.seed, std::max(1, std::min(4, processors)));
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return kExitUsage;
  }
  for (const std::vector<Exploration>* set : {&workload->main, &workload->hunts}) {
    for (const Exploration& e : *set) {
      if (lazyhb::programs::byName(e.scenario) == nullptr) {
        std::fprintf(stderr, "perfbench: scenario '%s' is not registered\n",
                     e.scenario.c_str());
        return kExitUsage;
      }
    }
  }
  warmUp(*workload);
  emitRecord("ready",
             JsonLine().field("in_process_s", secondsBetween(start, Clock::now())).str());
  if (args.setupOnly) return 0;

  return args.trace ? runTraced(*workload, args.seconds)
                    : runUntraced(*workload, args.seconds);
}
