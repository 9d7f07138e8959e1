// The run logic shared by every workload: repeated set-up, the timed
// closed loop, the traced run (spans + counters + tracing overhead), and
// the mode replay behind the cost breakdown.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "harness.h"

namespace svabench {

// Set-up time split by stage. Kernel workloads fill boot/prefill; the
// bytecode workload fills one entry per admission stage.
struct SetupTimes {
  double boot_ms = 0;
  double prefill_ms = 0;
  std::map<std::string, double> stages;
};

// One instance of a workload's system: a booted kernel with its working
// set, or a set of admitted modules.
class ReplayTarget {
 public:
  virtual ~ReplayTarget() = default;
  // Builds the system in `mode` (the bytecode workload maps kNative to
  // "checks off" and kSvaSafe to "checks on").
  virtual Status Setup(KernelMode mode, SetupTimes* times) = 0;
  // Runs operations [begin, end) of the seeded sequence and returns the
  // nanoseconds they took. Outputs are checked; wrong ones are counted in
  // `result`. Per-operation latencies go to `latencies` when non-null.
  virtual uint64_t RunChunk(uint64_t begin, uint64_t end, bool canaries,
                            RunResult* result, LatencyLog* latencies) = 0;
  // Counter snapshots around a measured phase; End reports per-operation
  // deltas into `result`.
  virtual void BeginCounters() = 0;
  virtual void EndCounters(RunResult* result, uint64_t ops) = 0;
  // Extra per-layer metrics known after set-up (module admission).
  virtual void ReportSetup(const SetupTimes& times, RunResult* result);
};

// Adapter for workloads whose operations run one at a time: RunChunk
// wraps each RunOp in an op span and sums the per-op times.
class OpTarget : public ReplayTarget {
 public:
  // Runs operation i and returns the nanoseconds its system part took.
  virtual uint64_t RunOp(uint64_t i, bool canaries, RunResult* result) = 0;
  uint64_t RunChunk(uint64_t begin, uint64_t end, bool canaries,
                    RunResult* result, LatencyLog* latencies) override;
};

// Operations per measurement window of the gated run (and per warm-up):
// 81 samples beyond p99 in each window.
inline constexpr uint64_t kWindow = 8192;

struct WorkloadSpec {
  // The modes the traced run replays the sequence on, in order; the last
  // is the gated configuration.
  std::vector<KernelMode> replay_modes;
  // Operations per chunk (the unit of interleaving and of time checks); a
  // divisor of kWindow.
  uint64_t chunk = 1024;
  // Digest of the first `ops` operations of the seeded sequence.
  std::function<uint64_t(uint64_t ops)> digest;
  // Fills the breakdown from the per-mode ns/op and the untraced gated
  // ns/op.
  std::function<void(RunResult*, const std::vector<double>&, double)>
      breakdown;
};

RunResult RunWorkload(const Options& options, const WorkloadSpec& spec,
                      const std::function<std::unique_ptr<ReplayTarget>()>& make);

}  // namespace svabench

#endif  // PERFBENCH_SRC_REPLAY_H_
