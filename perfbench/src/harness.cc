#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <fstream>

#include "src/smp/epoch.h"

namespace svabench {

SpanLog* g_spans = nullptr;
uint32_t g_op = 0;

double RefLoopMs() {
  uint64_t start = NowNs();
  volatile uint64_t sink = 0;
  uint64_t x = sink;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  sink = x;
  return static_cast<double>(NowNs() - start) / 1e6;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp:
      return "op";
    case Layer::kKernel:
      return "kernel";
    case Layer::kUserCopy:
      return "usercopy";
    case Layer::kNet:
      return "net";
    case Layer::kClient:
      return "client";
    case Layer::kSvm:
      return "svm";
  }
  return "?";
}

void SpanLog::Totals(std::map<Layer, LayerTotals>* layers,
                     std::map<uint16_t, LayerTotals>* syscalls) const {
  // Spans are appended when they end, so children precede their parent.
  // Sorting by (start asc, end desc) puts every parent before the spans it
  // covers; a stack sweep then charges each span's duration to its parent's
  // child time.
  std::vector<SpanRecord> sorted = spans_;
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start != b.start ? a.start < b.start : a.end > b.end;
            });
  std::vector<uint64_t> child_ns(sorted.size(), 0);
  std::vector<size_t> stack;
  auto close_until = [&](uint64_t t) {
    while (!stack.empty() && sorted[stack.back()].end <= t) {
      stack.pop_back();
    }
  };
  for (size_t i = 0; i < sorted.size(); ++i) {
    close_until(sorted[i].start);
    if (!stack.empty()) {
      child_ns[stack.back()] += sorted[i].end - sorted[i].start;
    }
    stack.push_back(i);
  }
  for (size_t i = 0; i < sorted.size(); ++i) {
    const SpanRecord& s = sorted[i];
    uint64_t dur = s.end - s.start;
    uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    LayerTotals& t = (*layers)[s.layer];
    ++t.spans;
    t.total_ns += dur;
    t.self_ns += self;
    if (s.layer == Layer::kKernel) {
      LayerTotals& c = (*syscalls)[s.detail];
      ++c.spans;
      c.total_ns += dur;
      c.self_ns += self;
    }
  }
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "op,layer,detail,start_ns,end_ns\n";
  for (const SpanRecord& s : spans_) {
    out << s.op << ',' << LayerName(s.layer) << ',' << s.detail << ','
        << s.start << ',' << s.end << '\n';
  }
  return static_cast<bool>(out);
}

Result<std::unique_ptr<KernelBox>> KernelBox::Boot(KernelMode mode) {
  std::unique_ptr<KernelBox> box(new KernelBox());
  box->machine_ = std::make_unique<sva::hw::Machine>(512ull << 20, 16384);
  sva::kernel::KernelConfig config;
  config.mode = mode;
  box->kernel_ =
      std::make_unique<sva::kernel::Kernel>(*box->machine_, config);
  SVA_RETURN_IF_ERROR(box->kernel_->Boot());
  return box;
}

double LatencyLog::PercentileUs(double q) {
  if (ns_.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(ns_.size())));
  rank = std::min(std::max<size_t>(rank, 1), ns_.size()) - 1;
  std::nth_element(ns_.begin(), ns_.begin() + static_cast<long>(rank),
                   ns_.end());
  return static_cast<double>(ns_[rank]) / 1000.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

KernelCounters KernelCounters::Read(KernelBox& box) {
  sva::kernel::Kernel& k = box.k();
  KernelCounters c;
  c.errno_returns = box.errno_returns();
  c.checks = k.pools().stats();
  c.tlb = k.svaos().current_cpu().tlb().stats();
  c.svaos = k.svaos().stats();
  c.vm = k.vm().stats();
  c.kernel = k.stats();
  c.epochs = EpochCounters::Read();
  return c;
}

EpochCounters EpochCounters::Read() {
  sva::smp::EpochDomain& domain = sva::smp::EpochDomain::Global();
  EpochCounters c;
  c.advances = domain.advances();
  c.retired = domain.retired();
  c.reclaimed = domain.reclaimed();
  return c;
}

namespace {
double PerOp(uint64_t after, uint64_t before, uint64_t ops) {
  return ops == 0 ? 0
                  : static_cast<double>(after - before) /
                        static_cast<double>(ops);
}
double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

void ReportKernelCounters(RunResult* result, const KernelCounters& b,
                          const KernelCounters& a, uint64_t ops) {
  RunResult& r = *result;
  r.Set("kernel.syscalls_per_op", PerOp(a.kernel.syscalls, b.kernel.syscalls, ops),
        "count");
  r.Set("kernel.errno_returns",
        static_cast<double>(a.errno_returns - b.errno_returns), "count");
  r.Set("kernel.bytes_copied_user_per_op",
        PerOp(a.kernel.bytes_copied_user, b.kernel.bytes_copied_user, ops), "B");
  r.Set("svaos.icontexts_per_op",
        PerOp(a.svaos.icontext_created, b.svaos.icontext_created, ops), "count");
  r.Set("svaos.interrupts_per_op",
        PerOp(a.svaos.interrupts_dispatched, b.svaos.interrupts_dispatched, ops),
        "count");
  r.Set("svaos.io_ops_per_op", PerOp(a.svaos.io_ops, b.svaos.io_ops, ops),
        "count");
  r.Set("runtime.checks_per_op",
        PerOp(a.checks.total_performed(), b.checks.total_performed(), ops),
        "count");
  r.Set("runtime.registrations_per_op",
        PerOp(a.checks.registrations, b.checks.registrations, ops), "count");
  r.Set("runtime.drops_per_op", PerOp(a.checks.drops, b.checks.drops, ops),
        "count");
  uint64_t hits = a.checks.cache_hits - b.checks.cache_hits;
  uint64_t misses = a.checks.cache_misses - b.checks.cache_misses;
  r.Set("runtime.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r.Set("runtime.splay_comparisons_per_lookup",
        Ratio(a.checks.splay_comparisons - b.checks.splay_comparisons,
              hits + misses),
        "count");
  r.Set("runtime.failed_checks",
        static_cast<double>(a.checks.total_failed() - b.checks.total_failed()),
        "count");
  r.Set("mm.page_faults_per_op", PerOp(a.vm.page_faults, b.vm.page_faults, ops),
        "count");
  r.Set("mm.cow_copies_per_op", PerOp(a.vm.cow_copies, b.vm.cow_copies, ops),
        "count");
  uint64_t tlb_hits = a.tlb.hits - b.tlb.hits;
  r.Set("hw.tlb_hit_ratio",
        Ratio(tlb_hits, tlb_hits + (a.tlb.misses - b.tlb.misses)), "ratio");
  ReportEpochCounters(result, b.epochs, a.epochs, ops);
}

void ReportEpochCounters(RunResult* result, const EpochCounters& b,
                         const EpochCounters& a, uint64_t ops) {
  result->Set("smp.epoch_advances_per_op", PerOp(a.advances, b.advances, ops),
              "count");
  result->Set("smp.epoch_retired_per_op", PerOp(a.retired, b.retired, ops),
              "count");
  result->Set("smp.epoch_reclaimed_per_op",
              PerOp(a.reclaimed, b.reclaimed, ops), "count");
}

namespace {
// Syscalls whose time per call the traced run reports.
const std::vector<std::pair<Sys, const char*>>& TimedSyscalls() {
  static const std::vector<std::pair<Sys, const char*>> list = {
      {Sys::kGetPid, "getpid"},       {Sys::kStat, "stat"},
      {Sys::kOpen, "open"},           {Sys::kRead, "read"},
      {Sys::kClose, "close"},         {Sys::kWrite, "write"},
      {Sys::kUnlink, "unlink"},       {Sys::kLseek, "lseek"},
      {Sys::kBrk, "brk"},             {Sys::kSigaction, "sigaction"},
      {Sys::kFork, "fork"},           {Sys::kExit, "exit"},
      {Sys::kWaitPid, "waitpid"},     {Sys::kEvqWait, "evq_wait"},
      {Sys::kRecv, "recv"},           {Sys::kSend, "send"},
  };
  return list;
}
}  // namespace

void ReportSpanTotals(RunResult* result, const SpanLog& log, uint64_t ops) {
  std::map<Layer, LayerTotals> layers;
  std::map<uint16_t, LayerTotals> syscalls;
  log.Totals(&layers, &syscalls);
  auto per = [](uint64_t ns, uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
  };
  LayerTotals all_syscalls;
  for (const auto& [number, t] : syscalls) {
    if (number != kYieldDetail) {
      all_syscalls.spans += t.spans;
      all_syscalls.total_ns += t.total_ns;
    }
  }
  result->Set("kernel.syscall_ns",
              per(all_syscalls.total_ns, all_syscalls.spans), "ns");
  for (const auto& [sys, name] : TimedSyscalls()) {
    const LayerTotals& t = syscalls[static_cast<uint16_t>(sys)];
    result->Set(std::string("kernel.") + name + ".ns_per_call",
                per(t.total_ns, t.spans), "ns");
  }
  const LayerTotals& net = layers[Layer::kNet];
  result->Set("net.flush_ns_per_req", per(net.total_ns, ops), "ns");
  const LayerTotals& client = layers[Layer::kClient];
  result->Set("client.ns_per_req", per(client.total_ns, ops), "ns");
  const LayerTotals& svm = layers[Layer::kSvm];
  result->Set("svm.run_ns_per_call", per(svm.total_ns, svm.spans), "ns");
  auto steps = result->metrics.find("svm.steps_per_call");
  if (steps != result->metrics.end() && steps->second.value > 0) {
    result->Set("svm.ns_per_step",
                per(svm.total_ns, svm.spans) / steps->second.value, "ns");
  }
  const LayerTotals& op = layers[Layer::kOp];
  result->Set("bench.self_ns_per_op", per(op.self_ns, ops), "ns");
  std::string line = "self time per op by layer (ns):";
  for (const auto& [layer, t] : layers) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.0f", LayerName(layer),
                  per(t.self_ns, ops));
    line += buf;
  }
  result->info.push_back(line);
  result->info.push_back("spans kept: " + std::to_string(log.spans().size()) +
                         ", dropped: " + std::to_string(log.dropped()));
}

void ReportBreakdown(RunResult* result, const double ns[4],
                     double safe_ns_per_op) {
  // Telescoping deltas: native -> SVA-GCC is the SVA-OS entry cost,
  // SVA-GCC -> SVA-LLVM the synthetic translator tax, SVA-LLVM -> SVA-Safe
  // the run-time checks.
  double svaos = ns[1] - ns[0];
  double translator = ns[2] - ns[1];
  double runtime = ns[3] - ns[2];
  double gap = safe_ns_per_op - ns[0];
  double residual = gap - (svaos + translator + runtime);
  result->Set("ref.native_ops_per_s", ns[0] > 0 ? 1e9 / ns[0] : 0, "1/s");
  result->Set("svaos.ns_per_op", svaos, "ns");
  result->Set("kernel.translator_tax_ns_per_op", translator, "ns");
  result->Set("runtime.ns_per_op", runtime, "ns");
  result->Set("breakdown.gap_ns_per_op", gap, "ns");
  result->Set("breakdown.residual_ns_per_op", residual, "ns");
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "four-mode breakdown (ns/op, modes interleaved in chunks):\n"
      "  native %.1f | SVA-GCC %.1f | SVA-LLVM %.1f | SVA-Safe %.1f\n"
      "  svaos (GCC-native)                          %+9.1f\n"
      "  translator (LLVM-GCC) [SYNTHETIC: KernelConfig::"
      "translator_tax_iterations loop] %+9.1f\n"
      "  runtime checks (Safe-LLVM)                  %+9.1f\n"
      "  sum of layers                               %+9.1f\n"
      "  measured gap (untraced Safe - native)       %+9.1f\n"
      "  residual (gap - sum)                        %+9.1f",
      ns[0], ns[1], ns[2], ns[3], svaos, translator, runtime,
      svaos + translator + runtime, gap, residual);
  result->info.push_back(buf);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"kernel.syscall_ns", "ns"},
        {"kernel.syscalls_per_op", "count"},
        {"kernel.bytes_copied_user_per_op", "B"},
        {"kernel.errno_returns", "count"},
        {"kernel.evq_events_per_wait", "count"},
        {"kernel.recv_eagain_ratio", "ratio"},
        {"kernel.translator_tax_ns_per_op", "ns"},
        {"svaos.icontexts_per_op", "count"},
        {"svaos.interrupts_per_op", "count"},
        {"svaos.io_ops_per_op", "count"},
        {"svaos.ns_per_op", "ns"},
        {"runtime.checks_per_op", "count"},
        {"runtime.registrations_per_op", "count"},
        {"runtime.drops_per_op", "count"},
        {"runtime.cache_hit_ratio", "ratio"},
        {"runtime.splay_comparisons_per_lookup", "count"},
        {"runtime.failed_checks", "count"},
        {"runtime.ns_per_op", "ns"},
        {"mm.page_faults_per_op", "count"},
        {"mm.cow_copies_per_op", "count"},
        {"hw.tlb_hit_ratio", "ratio"},
        {"net.flush_ns_per_req", "ns"},
        {"net.frames_per_poll", "count"},
        {"net.irqs_per_frame", "count"},
        {"net.tx_frames_per_req", "count"},
        {"net.rx_queue_drops", "count"},
        {"net.rx_violations", "count"},
        {"client.ns_per_req", "ns"},
        {"svm.run_ns_per_call", "ns"},
        {"svm.steps_per_call", "count"},
        {"svm.ns_per_step", "ns"},
        {"svm.threaded_fn_ratio", "ratio"},
        {"vir.parse_ms", "ms"},
        {"safety.compile_ms", "ms"},
        {"vir.verify_ms", "ms"},
        {"verifier.typecheck_ms", "ms"},
        {"svm.load_ms", "ms"},
        {"safety.checks_inserted", "count"},
        {"safety.checks_elided", "count"},
        {"setup.boot_ms", "ms"},
        {"setup.prefill_ms", "ms"},
        {"smp.epoch_advances_per_op", "count"},
        {"smp.epoch_retired_per_op", "count"},
        {"smp.epoch_reclaimed_per_op", "count"},
        {"host.ref_loop_ms", "ms"},
        {"ref.native_ops_per_s", "1/s"},
        {"breakdown.gap_ns_per_op", "ns"},
        {"breakdown.residual_ns_per_op", "ns"},
        {"trace.overhead_pct", "%"},
        {"bench.self_ns_per_op", "ns"},
    };
    for (const auto& [sys, name] : TimedSyscalls()) {
      v.push_back({std::string("kernel.") + name + ".ns_per_call", "ns"});
    }
    return v;
  }();
  return list;
}

void FillIdleLayers(RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (result->metrics.count(name) == 0) {
      result->Set(name, 0, unit);
    }
  }
}

}  // namespace svabench
