// Shared machinery of the repository benchmark (svabench): seeded input
// generation, per-operation timing, bench-side layer spans, a checked
// kernel boot, and the result record every workload fills in.
//
// Nothing here reaches into the system under test: layers are timed from
// outside, by wrapping the calls the benchmark makes into their public
// functions, and counted by reading their public stats structs.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/kernel/kernel.h"
#include "src/support/status.h"

namespace svabench {

using sva::Result;
using sva::Status;
using sva::kernel::KernelMode;
using sva::kernel::Sys;

// ---------------------------------------------------------------------------
// Seeded inputs.

// SplitMix64: the whole input stream of a run derives from --seed through
// this mixer, so the same seed gives the same files, request sequence and
// call sequence, and operation i can be regenerated on its own (the
// four-mode replay runs the same sequence on four kernels).
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
// The random word for draw `salt` of operation `i` under `seed`.
inline uint64_t Draw(uint64_t seed, uint64_t i, uint64_t salt = 0) {
  return Mix(Mix(seed ^ 0x5bd1e9955bd1e995ull) ^ Mix(i * 4 + salt));
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_++); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// FNV-1a, for sequence digests and content checksums.
inline uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// ---------------------------------------------------------------------------
// Time.

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A fixed pure-ALU loop with no system code in it, timed at the start and
// end of every run: when it slows down, the host slowed down, not the
// program.
double RefLoopMs();

// ---------------------------------------------------------------------------
// Bench-side spans (traced runs only).

enum class Layer : uint16_t {
  kOp,        // One benchmark operation (the root of its spans).
  kKernel,    // Kernel::Syscall (detail = syscall number) or
              // Kernel::Yield (detail = kYieldDetail).
  kUserCopy,  // Kernel::PokeUser / PeekUser (the "user program" touching
              // its own memory).
  kNet,       // LoopbackClient::Flush: NIC rx -> NAPI -> socket delivery.
  kClient,    // LoopbackClient::SendStream / TakeStream (load generator).
  kSvm,       // LoadedModule::Run.
};
const char* LayerName(Layer layer);
inline constexpr uint16_t kYieldDetail = 0xffff;

struct SpanRecord {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t op = 0;
  Layer layer = Layer::kOp;
  uint16_t detail = 0;
};

// Per-layer totals computed from the recorded spans.
struct LayerTotals {
  uint64_t spans = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus the time covered by child spans.
};

// Keeps spans in a preallocated buffer. A traced phase stops before a
// chunk could overflow it, so every kept operation has all of its spans;
// dropped() counts any that did not fit.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }
  bool HasRoomFor(size_t spans) const {
    return spans_.size() + spans <= spans_.capacity();
  }
  void Add(const SpanRecord& span) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  // Self time per layer (and, for the kernel layer, per syscall number).
  void Totals(std::map<Layer, LayerTotals>* layers,
              std::map<uint16_t, LayerTotals>* syscalls) const;
  // Writes one CSV line per span: op,layer,detail,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
};

// The active span log, or null when the run is not traced. Single-threaded
// workloads only: spans are recorded by the thread that runs the workload.
extern SpanLog* g_spans;
extern uint32_t g_op;

class Span {
 public:
  explicit Span(Layer layer, uint16_t detail = 0)
      : layer_(layer), detail_(detail), start_(g_spans ? NowNs() : 0) {}
  ~Span() {
    if (g_spans != nullptr) {
      g_spans->Add({start_, NowNs(), g_op, layer_, detail_});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  uint16_t detail_;
  uint64_t start_;
};

// True for the errno-style (negative) syscall return values.
inline bool IsErrno(uint64_t v) { return v >= (uint64_t{1} << 63); }

// ---------------------------------------------------------------------------
// The booted kernel, with every Result checked (no assert: the benchmark is
// built with NDEBUG).

class KernelBox {
 public:
  // Boots a kernel in `mode` on a 512 MiB machine (the size every bench
  // harness of the repository uses).
  static Result<std::unique_ptr<KernelBox>> Boot(KernelMode mode);

  sva::kernel::Kernel& k() { return *kernel_; }
  // User virtual address `offset` bytes into the current task's space.
  uint64_t user(uint64_t offset = 0) const {
    return sva::kernel::kUserVirtualBase +
           static_cast<uint64_t>(kernel_->current_pid()) * 0x100000 + offset;
  }

  // Kernel::Syscall wrapped in a kernel span. A transport failure (a
  // non-OK Result) is returned as is; errno-style returns are values.
  Result<uint64_t> Call(Sys n, uint64_t a0 = 0, uint64_t a1 = 0,
                        uint64_t a2 = 0, uint64_t a3 = 0) {
    Span span(Layer::kKernel, static_cast<uint16_t>(n));
    Result<uint64_t> r = kernel_->Syscall(n, a0, a1, a2, a3);
    if (r.ok() && IsErrno(*r)) {
      ++errno_returns_;
    }
    return r;
  }
  // Syscalls that returned an errno value (expected ones included).
  uint64_t errno_returns() const { return errno_returns_; }
  Status Poke(uint64_t uaddr, const void* data, uint64_t len) {
    Span span(Layer::kUserCopy);
    return kernel_->PokeUser(uaddr, data, len);
  }
  Status Peek(uint64_t uaddr, void* data, uint64_t len) {
    Span span(Layer::kUserCopy);
    return kernel_->PeekUser(uaddr, data, len);
  }
  Status PokeString(uint64_t uaddr, const std::string& text) {
    Span span(Layer::kUserCopy);
    return kernel_->PokeUserString(uaddr, text);
  }

 private:
  KernelBox() = default;
  std::unique_ptr<sva::hw::Machine> machine_;
  std::unique_ptr<sva::kernel::Kernel> kernel_;
  uint64_t errno_returns_ = 0;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0;
  std::string unit;
};

// What one run reports. Workloads fill `metrics` with the end-to-end set
// (untraced run) or the per-layer set (traced run); `info` carries extra
// lines for the human-readable report (sample counts, the breakdown table).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool integrity_ok = true;  // Whole-run checks (connections held, ...).
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;
  // Deterministic digests and counts (--ops mode): the same seed must give
  // the same values.
  std::map<std::string, uint64_t> digests;

  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) {
      problems.push_back(what);
    }
  }
  void Broken(const std::string& what) {
    integrity_ok = false;
    if (problems.size() < 20) {
      problems.push_back(what);
    }
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

// Per-operation latencies of the measured phase.
class LatencyLog {
 public:
  void Reserve(size_t n) { ns_.reserve(n); }
  void Add(uint64_t ns) { ns_.push_back(ns); }
  size_t size() const { return ns_.size(); }
  // Nearest-rank percentile in microseconds (q in [0,1]).
  double PercentileUs(double q);

 private:
  std::vector<uint64_t> ns_;
};

// Run options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Fixed-length mode for the determinism tests: run exactly this many
  // operations (no timing loop, no setup repetition) and report digests.
  uint64_t ops = 0;
  // Test hook: never inject the safety canary's malicious half, so the
  // run must fail (proves a missed canary is reported).
  bool disarm_canary = false;
  std::string span_dir;
};

// Setup is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 5;

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// The process-wide epoch domain's counters (smp layer).
struct EpochCounters {
  uint64_t advances = 0;
  uint64_t retired = 0;
  uint64_t reclaimed = 0;
  static EpochCounters Read();
};
void ReportEpochCounters(RunResult* result, const EpochCounters& before,
                         const EpochCounters& after, uint64_t ops);

// A snapshot of the counters the kernel workloads report as per-operation
// deltas.
struct KernelCounters {
  sva::runtime::CheckStats checks;
  sva::hw::Tlb::Stats tlb;
  sva::smp::SvaOsStats svaos;
  sva::mm::VmStats vm;
  sva::kernel::KernelStats kernel;
  EpochCounters epochs;
  uint64_t errno_returns = 0;
  static KernelCounters Read(KernelBox& box);
};
void ReportKernelCounters(RunResult* result, const KernelCounters& before,
                          const KernelCounters& after, uint64_t ops);
// Per-layer metrics from the span log: time per syscall and per layer.
// `ops` is the number of traced operations (requests, on http_c10k).
void ReportSpanTotals(RunResult* result, const SpanLog& log, uint64_t ops);

// The four-mode breakdown: ns per operation of each mode, interleaved in
// chunks. `safe_ns_per_op` is the untraced Safe figure measured in the
// same run; the residual is its gap to native minus the three layer
// deltas.
void ReportBreakdown(RunResult* result, const double mode_ns_per_op[4],
                     double safe_ns_per_op);

// Every per-layer metric name and unit; a traced run reports all of them
// (0 where the workload leaves the layer idle).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
void FillIdleLayers(RunResult* result);

// Workload entry points (one translation unit each).
RunResult RunSyscallMix(const Options& options);
RunResult RunHttpC10k(const Options& options);
RunResult RunBytecodeExec(const Options& options);

}  // namespace svabench

#endif  // PERFBENCH_SRC_HARNESS_H_
