#include "replay.h"

#include <cmath>

namespace svabench {

void ReplayTarget::ReportSetup(const SetupTimes& times, RunResult* result) {
  result->Set("setup.boot_ms", times.boot_ms, "ms");
  result->Set("setup.prefill_ms", times.prefill_ms, "ms");
}

uint64_t OpTarget::RunChunk(uint64_t begin, uint64_t end, bool canaries,
                            RunResult* result, LatencyLog* latencies) {
  uint64_t total = 0;
  for (uint64_t i = begin; i < end; ++i) {
    g_op = static_cast<uint32_t>(i);
    uint64_t ns;
    {
      Span span(Layer::kOp);
      ns = RunOp(i, canaries, result);
    }
    total += ns;
    if (latencies != nullptr) {
      latencies->Add(ns);
    }
  }
  return total;
}

namespace {

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Warm-up before any timed phase: one window of operations lets
// allocator slabs, splay trees, the lookup caches and the threaded decoder
// fill, as they are on a running system. Warm-up operations are checked
// like all others. Returns the index of the next operation.
uint64_t Warm(ReplayTarget& target, const WorkloadSpec& spec, bool canaries,
              RunResult* result) {
  for (uint64_t next = 0; next < kWindow; next += spec.chunk) {
    target.RunChunk(next, next + spec.chunk, canaries, result, nullptr);
  }
  return kWindow;
}

// peak_rss_mb is read once the first instance has served this many
// windows (or at the end of its share, if sooner): a fixed amount of work,
// so memory that grows with the work done reads the same on a fast and a
// slow host.
constexpr size_t kRssWindows = 8;

Status SetUp(const std::function<std::unique_ptr<ReplayTarget>()>& make,
             KernelMode mode, std::unique_ptr<ReplayTarget>* out,
             SetupTimes* times) {
  out->reset();  // Tear the previous instance down before building anew.
  std::unique_ptr<ReplayTarget> target = make();
  SVA_RETURN_IF_ERROR(target->Setup(mode, times));
  *out = std::move(target);
  return sva::OkStatus();
}

// The gated run. Set-up runs kSetupRepeats times and setup_s is the
// median. Each instance then serves an equal share of the measured time in
// windows of kWindow operations. ops_per_s is all windows' operations over
// their busy time; each latency figure is the mean over windows of that
// window's percentile:
//  - the host flips between fast and slow stretches of a second or more,
//    so window figures form two clusters; a mean moves in proportion to
//    the share of slow windows in a run, while a median over windows
//    jumps between the clusters when that share is near one half;
//  - a run measures several fresh instances (each on other host memory)
//    rather than one, so no single instance's placement sets a run.
void RunUntraced(const Options& options, const WorkloadSpec& spec,
                 const std::function<std::unique_ptr<ReplayTarget>()>& make,
                 RunResult* result) {
  std::vector<double> setups, p50s, p99s;
  uint64_t samples = 0;
  uint64_t busy_total_ns = 0;
  double peak_rss_mb = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    std::unique_ptr<ReplayTarget> target;
    uint64_t t0 = NowNs();
    Status s = SetUp(make, KernelMode::kSvaSafe, &target, nullptr);
    setups.push_back(Seconds(NowNs() - t0));
    if (!s.ok()) {
      result->Broken("setup: " + s.ToString());
      return;
    }
    uint64_t next = Warm(*target, spec, true, result);
    uint64_t start = NowNs();
    size_t windows = 0;
    while (Seconds(NowNs() - start) < options.seconds / kSetupRepeats) {
      LatencyLog latencies;
      latencies.Reserve(kWindow);
      uint64_t busy_ns = 0;
      for (uint64_t done = 0; done < kWindow; done += spec.chunk) {
        busy_ns += target->RunChunk(next, next + spec.chunk, true, result,
                                    &latencies);
        next += spec.chunk;
      }
      busy_total_ns += busy_ns;
      p50s.push_back(latencies.PercentileUs(0.50));
      p99s.push_back(latencies.PercentileUs(0.99));
      samples += latencies.size();
      // One instance's footprint: later instances are built in the same
      // process, and memory the allocator keeps from their predecessors
      // would count against them.
      if (r == 0 && ++windows == kRssWindows) {
        peak_rss_mb = PeakRssMb();
      }
    }
    if (r == 0 && windows < kRssWindows) {
      peak_rss_mb = PeakRssMb();
    }
  }
  result->Set("ops_per_s",
              static_cast<double>(samples) / Seconds(busy_total_ns), "1/s");
  result->Set("latency_p50_us", Mean(p50s), "us");
  result->Set("latency_p99_us", Mean(p99s), "us");
  result->Set("setup_s", Median(setups), "s");
  result->Set("peak_rss_mb", peak_rss_mb, "MiB");
  const uint64_t beyond_p99 = kWindow / 100;
  result->info.push_back(
      "latency samples: " + std::to_string(samples) + " in " +
      std::to_string(p50s.size()) + " windows of " +
      std::to_string(kWindow) + " over " +
      std::to_string(kSetupRepeats) + " instances (" +
      std::to_string(beyond_p99) + " beyond p99 in each window)");
  if (beyond_p99 < 10 || p50s.size() < 2 * kSetupRepeats) {
    result->Broken("too few latency samples beyond p99 or too few windows");
  }
}

// The traced run: per-layer counters and spans on the gated configuration,
// the tracing overhead, then the mode replay.
void RunTraced(const Options& options, const WorkloadSpec& spec,
               const std::function<std::unique_ptr<ReplayTarget>()>& make,
               RunResult* result) {
  const double budget = options.seconds / 2;
  std::unique_ptr<ReplayTarget> target;
  SetupTimes times;
  Status s = SetUp(make, KernelMode::kSvaSafe, &target, &times);
  if (!s.ok()) {
    result->Broken("setup: " + s.ToString());
    return;
  }
  target->ReportSetup(times, result);
  uint64_t next = Warm(*target, spec, true, result);

  // Untraced and traced chunks alternate, so host drift hits both alike;
  // their ns/op difference is the tracing overhead.
  SpanLog log(1 << 20);
  // No operation of any workload records more spans than this.
  constexpr uint64_t kMaxSpansPerOp = 16;
  uint64_t ns[2] = {0, 0};
  uint64_t ops[2] = {0, 0};
  target->BeginCounters();
  uint64_t start = NowNs();
  while (Seconds(NowNs() - start) < budget &&
         log.HasRoomFor(spec.chunk * kMaxSpansPerOp)) {
    for (int traced = 0; traced < 2; ++traced) {
      g_spans = traced ? &log : nullptr;
      ns[traced] += target->RunChunk(next, next + spec.chunk, true, result,
                                     nullptr);
      g_spans = nullptr;
      next += spec.chunk;
      ops[traced] += spec.chunk;
    }
  }
  target->EndCounters(result, ops[0] + ops[1]);
  ReportSpanTotals(result, log, ops[1]);
  double untraced_ns = static_cast<double>(ns[0]) / static_cast<double>(ops[0]);
  double traced_ns = static_cast<double>(ns[1]) / static_cast<double>(ops[1]);
  result->Set("trace.overhead_pct", (traced_ns - untraced_ns) / untraced_ns * 100,
              "%");
  if (!options.span_dir.empty()) {
    std::string path = options.span_dir + "/" + options.workload + ".csv";
    if (log.WriteCsv(path)) {
      result->info.push_back("spans written to " + path);
    }
  }
  target.reset();

  // The mode replay: the same seeded sequence (canaries off: only the
  // checked mode can catch them) on one instance per mode, interleaved in
  // chunks whose mode order rotates, so drift and ordering hit every mode
  // alike.
  const size_t modes = spec.replay_modes.size();
  std::vector<std::unique_ptr<ReplayTarget>> targets(modes);
  for (size_t m = 0; m < modes; ++m) {
    s = SetUp(make, spec.replay_modes[m], &targets[m], nullptr);
    if (!s.ok()) {
      result->Broken("replay setup: " + s.ToString());
      return;
    }
    Warm(*targets[m], spec, false, result);
  }
  // Longer chunks than the measured phase's: each switch to another live
  // instance starts with cold caches, and a long chunk amortizes that.
  const uint64_t chunk = 4 * spec.chunk;
  std::vector<uint64_t> mode_ns(modes, 0);
  uint64_t replayed = 0;
  start = NowNs();
  for (uint64_t c = 0; Seconds(NowNs() - start) < budget; ++c) {
    for (size_t j = 0; j < modes; ++j) {
      size_t m = (c + j) % modes;
      mode_ns[m] += targets[m]->RunChunk(replayed, replayed + chunk, false,
                                         result, nullptr);
    }
    replayed += chunk;
  }
  std::vector<double> ns_per_op(modes);
  for (size_t m = 0; m < modes; ++m) {
    ns_per_op[m] =
        static_cast<double>(mode_ns[m]) / static_cast<double>(replayed);
  }
  spec.breakdown(result, ns_per_op, untraced_ns);
  result->info.push_back("replayed operations per mode: " +
                         std::to_string(replayed));
}

}  // namespace

RunResult RunWorkload(const Options& options, const WorkloadSpec& spec,
                      const std::function<std::unique_ptr<ReplayTarget>()>& make) {
  RunResult result;
  if (options.ops > 0) {
    // Determinism mode: a fixed number of operations on one fresh system,
    // reported as digests and exact counts.
    std::unique_ptr<ReplayTarget> target;
    SetupTimes times;
    Status s = SetUp(make, KernelMode::kSvaSafe, &target, &times);
    if (!s.ok()) {
      result.Broken("setup: " + s.ToString());
      return result;
    }
    target->ReportSetup(times, &result);
    uint64_t ops = (options.ops + spec.chunk - 1) / spec.chunk * spec.chunk;
    target->BeginCounters();
    for (uint64_t i = 0; i < ops; i += spec.chunk) {
      target->RunChunk(i, i + spec.chunk, true, &result, nullptr);
    }
    target->EndCounters(&result, ops);
    result.digests["sequence"] = spec.digest(ops);
    result.digests["ops"] = ops;
    return result;
  }
  double ref_start = RefLoopMs();
  if (options.trace) {
    RunTraced(options, spec, make, &result);
  } else {
    RunUntraced(options, spec, make, &result);
  }
  double ref_end = RefLoopMs();
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "host reference loop: %.2f ms at start, %.2f ms at end",
                ref_start, ref_end);
  result.info.push_back(buf);
  if (options.trace) {
    result.Set("host.ref_loop_ms", (ref_start + ref_end) / 2, "ms");
    FillIdleLayers(&result);
  }
  return result;
}

}  // namespace svabench
