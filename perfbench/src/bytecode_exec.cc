// bytecode_exec: one thread on the default threaded tier, calling a seeded
// sequence of entry points of SVA-IR modules that went through the full
// admission pipeline at set-up (parse -> safety compiler ->
// SecureVirtualMachine::LoadModule, which runs the structural verifier and
// the type check before it initialises the module). The modules
// are the repository's existing programs -- the Table 7 syscall-shaped copy
// loop, the net_throughput packet parser, the exploit scenarios (benign
// inputs) -- plus one that keeps far more objects live in one metapool
// than the lookup cache holds.
//
// It loads SVM dispatch and the metapool runtime on its read side (object
// lookups); its set-up time is the module admission cost. The kernel and
// the net stack stay idle.
#include <cstring>

#include "harness.h"
#include "replay.h"
#include "src/exploits/exploits.h"
#include "src/safety/compiler.h"
#include "src/svm/svm.h"
#include "src/trace/metrics.h"
#include "src/verifier/typechecker.h"
#include "src/vir/parser.h"
#include "src/vir/structural_verifier.h"

namespace svabench {
namespace {

// Same program as bench/table7_syscall_latency.cc's tier workload: allocate
// a kernel object, copy through it byte by byte (every access checked),
// free it.
constexpr char kSyscallLike[] = R"(
module "table7_bytecode"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)

define i64 @syscall_like(i64 %len) {
entry:
  %buf = call i8* @kmalloc(i64 256)
  br label %copy
copy:
  %i = phi i64 [ 0, %entry ], [ %i2, %copy ]
  %sum = phi i64 [ 0, %entry ], [ %sum2, %copy ]
  %src = getelementptr i8* %buf, i64 %i
  %b = load i8, i8* %src
  %off = add i64 %i, 128
  %dst = getelementptr i8* %buf, i64 %off
  store i8 %b, i8* %dst
  %wide = zext i8 %b to i64
  %sum2 = add i64 %sum, %wide
  %i2 = add i64 %i, 1
  %done = icmp uge i64 %i2, %len
  br i1 %done, label %exit, label %copy
exit:
  call void @kfree(i8* %buf)
  ret i64 %sum2
}
)";

// Same program as bench/net_throughput.cc's phase 4: the rx parse step,
// copying `claimed` payload bytes of a 128-byte frame into a 64-byte
// buffer. A lying header (claimed > 64) must trap.
constexpr char kParsePacket[] = R"(
module "net_bytecode"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)

define i64 @parse_packet(i64 %claimed) {
entry:
  %frame = call i8* @kmalloc(i64 128)
  %out = call i8* @kmalloc(i64 64)
  br label %copy
copy:
  %i = phi i64 [ 0, %entry ], [ %i2, %copy ]
  %src = getelementptr i8* %frame, i64 %i
  %b = load i8, i8* %src
  %dst = getelementptr i8* %out, i64 %i
  store i8 %b, i8* %dst
  %i2 = add i64 %i, 1
  %done = icmp uge i64 %i2, %claimed
  br i1 %done, label %exit, label %copy
exit:
  call void @kfree(i8* %out)
  call void @kfree(i8* %frame)
  ret i64 %i2
}
)";

// Many live objects in one metapool: 64 objects of 64 bytes, then 256
// checked accesses scattered over them (16 times more objects than the
// 4-way lookup cache holds), then all freed. Returns the sum of the object
// ids visited, sum over k < 256 of (k * 97 + salt) & 63.
constexpr uint64_t kScatterObjects = 64;
constexpr uint64_t kScatterWalk = 256;
constexpr char kScatter[] = R"(
module "many_objects"
declare i8* @kmalloc(i64)
declare void @kfree(i8*)

define i64 @scatter(i64 %salt) {
entry:
  %tab8 = call i8* @kmalloc(i64 512)
  %tab = bitcast i8* %tab8 to i8**
  br label %alloc
alloc:
  %i = phi i64 [ 0, %entry ], [ %i2, %alloc ]
  %obj = call i8* @kmalloc(i64 64)
  %slot = getelementptr i8** %tab, i64 %i
  store i8* %obj, i8** %slot
  %id = trunc i64 %i to i8
  store i8 %id, i8* %obj
  %i2 = add i64 %i, 1
  %filled = icmp uge i64 %i2, 64
  br i1 %filled, label %walk, label %alloc
walk:
  %k = phi i64 [ 0, %alloc ], [ %k2, %walk ]
  %sum = phi i64 [ 0, %alloc ], [ %sum2, %walk ]
  %m = mul i64 %k, 97
  %m2 = add i64 %m, %salt
  %idx = and i64 %m2, 63
  %pslot = getelementptr i8** %tab, i64 %idx
  %p = load i8*, i8** %pslot
  %low = and i64 %k, 62
  %off = add i64 %low, 1
  %q = getelementptr i8* %p, i64 %off
  %kb = trunc i64 %k to i8
  store i8 %kb, i8* %q
  %idb = load i8, i8* %p
  %idw = zext i8 %idb to i64
  %sum2 = add i64 %sum, %idw
  %k2 = add i64 %k, 1
  %walked = icmp uge i64 %k2, 256
  br i1 %walked, label %free, label %walk
free:
  %j = phi i64 [ 0, %walk ], [ %j2, %free ]
  %fslot = getelementptr i8** %tab, i64 %j
  %fp = load i8*, i8** %fslot
  call void @kfree(i8* %fp)
  %j2 = add i64 %j, 1
  %freed = icmp uge i64 %j2, 64
  br i1 %freed, label %exit, label %free
exit:
  call void @kfree(i8* %tab8)
  ret i64 %sum2
}
)";

uint64_t ScatterExpected(uint64_t salt) {
  uint64_t sum = 0;
  for (uint64_t k = 0; k < kScatterWalk; ++k) {
    sum += (k * 97 + salt) & (kScatterObjects - 1);
  }
  return sum;
}

// One kind of call the seeded sequence draws from.
struct CallKind {
  size_t module = 0;
  std::string entry;
  uint64_t arg = 0;
  bool scatter = false;  // Argument drawn per call; result checked host-side.
  unsigned weight = 0;  // Out of Plan::total_weight.
  // Oracle from the reference interpreter tier (not the tier under test).
  uint64_t want_value = 0;
  uint64_t want_steps = 0;
};

struct Plan {
  uint64_t seed = 0;
  std::vector<std::string> modules;  // SVA-IR text of each module.
  std::vector<CallKind> calls;
  unsigned total_weight = 0;
  size_t parse_module = 0;
};

struct Admitted {
  std::unique_ptr<sva::svm::LoadedModule> loaded;
  sva::safety::SafetyReport report;
};

double MsSince(uint64_t since) {
  return static_cast<double>(NowNs() - since) / 1e6;
}

// The admission pipeline as the repository runs it: parse -> safety
// compiler -> LoadModule (structural verify, type check, initialise). With
// `times` (the traced run), each stage is timed; the verifier and the type
// check are then also run as separate calls before LoadModule, so their
// times can be told apart, and svm.load_ms is LoadModule's time net of
// them. Without `times` nothing runs twice.
Result<Admitted> Admit(const std::string& text, bool enforce_checks,
                       sva::svm::ExecTier tier, SetupTimes* times) {
  Admitted out;
  uint64_t t = NowNs();
  SVA_ASSIGN_OR_RETURN(std::unique_ptr<sva::vir::Module> module,
                       sva::vir::ParseModule(text));
  const double parse_ms = MsSince(t);
  t = NowNs();
  sva::safety::SafetyCompilerOptions copts;
  SVA_ASSIGN_OR_RETURN(out.report,
                       sva::safety::RunSafetyCompiler(*module, copts));
  const double compile_ms = MsSince(t);
  double verify_ms = 0;
  double typecheck_ms = 0;
  if (times != nullptr) {
    t = NowNs();
    SVA_RETURN_IF_ERROR(sva::vir::VerifyModule(*module));
    verify_ms = MsSince(t);
    t = NowNs();
    SVA_RETURN_IF_ERROR(sva::verifier::TypeCheckOrError(*module));
    typecheck_ms = MsSince(t);
  }
  t = NowNs();
  sva::svm::SvmOptions options;
  options.interp.tier = tier;
  options.interp.enforce_checks = enforce_checks;
  sva::svm::SecureVirtualMachine vm(options);
  SVA_ASSIGN_OR_RETURN(out.loaded, vm.LoadModule(std::move(module)));
  const double load_ms = MsSince(t);
  if (times != nullptr) {
    times->stages["vir.parse_ms"] += parse_ms;
    times->stages["safety.compile_ms"] += compile_ms;
    times->stages["vir.verify_ms"] += verify_ms;
    times->stages["verifier.typecheck_ms"] += typecheck_ms;
    times->stages["svm.load_ms"] += load_ms - verify_ms - typecheck_ms;
  }
  return out;
}

// Every program has the same weight, kProgramWeight: no published count of
// how often each is called is at hand, and equal weights add no tuning
// constant of this benchmark's own. The copy loop and the packet parser are
// each called with three arguments, so each argument has weight 1.
constexpr unsigned kProgramWeight = 3;

Result<Plan> MakePlan(uint64_t seed) {
  Plan plan;
  plan.seed = seed;
  plan.modules.push_back(kSyscallLike);
  for (uint64_t len : {16, 64, 128}) {
    plan.calls.push_back({0, "syscall_like", len, false, 1, 0, 0});
  }
  plan.parse_module = plan.modules.size();
  plan.modules.push_back(kParsePacket);
  for (uint64_t claimed : {16, 48, 64}) {
    plan.calls.push_back({plan.parse_module, "parse_packet", claimed, false,
                          1, 0, 0});
  }
  for (const auto& s : sva::exploits::AllScenarios()) {
    if (s.bytecode.empty()) {
      continue;
    }
    plan.calls.push_back({plan.modules.size(), s.entry, s.benign_arg, false,
                          kProgramWeight, 0, 0});
    plan.modules.push_back(s.bytecode);
  }
  plan.calls.push_back({plan.modules.size(), "scatter", 0, true,
                        kProgramWeight, 0, 0});
  plan.modules.push_back(kScatter);

  // The oracle: every fixed call once on the reference interpreter tier.
  std::vector<Admitted> reference;
  for (const std::string& text : plan.modules) {
    SVA_ASSIGN_OR_RETURN(Admitted a, Admit(text, true,
                                           sva::svm::ExecTier::kInterp,
                                           nullptr));
    reference.push_back(std::move(a));
  }
  for (CallKind& call : plan.calls) {
    plan.total_weight += call.weight;
    if (call.scatter) {
      continue;
    }
    sva::svm::ExecResult r =
        reference[call.module].loaded->Run(call.entry, {call.arg});
    if (!r.status.ok()) {
      return sva::Internal("reference run of @" + call.entry +
                           " failed: " + r.status.ToString());
    }
    call.want_value = r.value;
    call.want_steps = r.steps;
  }
  return plan;
}

// On average one call in this many is the safety canary.
constexpr uint64_t kCanaryPeriod = 4096;

class Modules : public OpTarget {
 public:
  Modules(const Plan& plan, bool disarm) : plan_(plan), disarm_(disarm) {}

  Status Setup(KernelMode mode, SetupTimes* times) override {
    // kNative is the "checks off" configuration (InterpOptions::
    // enforce_checks = false); every other mode runs with checks on.
    const bool enforce = mode != KernelMode::kNative;
    modules_.clear();
    for (const std::string& text : plan_.modules) {
      SVA_ASSIGN_OR_RETURN(Admitted a, Admit(text, enforce,
                                             sva::svm::ExecTier::kThreaded,
                                             times));
      inserted_ += a.report.bounds_checks + a.report.direct_bounds_checks +
                   a.report.ls_checks + a.report.indirect_checks;
      elided_ += a.report.elided_bounds_checks +
                 a.report.elided_th_ls_checks + a.report.reduced_ls_checks;
      modules_.push_back(std::move(a.loaded));
    }
    return sva::OkStatus();
  }

  void ReportSetup(const SetupTimes& times, RunResult* result) override {
    for (const auto& [name, ms] : times.stages) {
      result->Set(name, ms, "ms");
    }
    result->Set("safety.checks_inserted", static_cast<double>(inserted_),
                "count");
    result->Set("safety.checks_elided", static_cast<double>(elided_), "count");
  }

  uint64_t RunOp(uint64_t i, bool canaries, RunResult* result) override;

  void BeginCounters() override {
    before_ = Checks();
    tiers_before_[0] = sva::trace::TierCounters::Get().threaded_fns.load();
    tiers_before_[1] = sva::trace::TierCounters::Get().interp_fns.load();
    steps_before_ = steps_;
    epochs_before_ = EpochCounters::Read();
  }
  void EndCounters(RunResult* result, uint64_t ops) override;

 private:
  sva::runtime::CheckStats Checks() const;

  const Plan& plan_;
  const bool disarm_;
  std::vector<std::unique_ptr<sva::svm::LoadedModule>> modules_;
  uint64_t inserted_ = 0;
  uint64_t elided_ = 0;
  uint64_t steps_ = 0;
  uint64_t steps_before_ = 0;
  uint64_t tiers_before_[2] = {0, 0};
  sva::runtime::CheckStats before_;
  EpochCounters epochs_before_;
};

uint64_t Modules::RunOp(uint64_t i, bool canaries, RunResult* result) {
  ++result->attempted;
  if (canaries && Draw(plan_.seed, i, 3) % kCanaryPeriod == 0) {
    // An out-of-bounds call: a header claiming 4096 bytes for the 64-byte
    // buffer. Disarmed (test hook), an honest length is passed instead.
    uint64_t t0 = NowNs();
    sva::svm::ExecResult r;
    {
      Span span(Layer::kSvm);
      r = modules_[plan_.parse_module]->Run("parse_packet",
                                            {disarm_ ? 48u : 4096u});
    }
    uint64_t ns = NowNs() - t0;
    if (r.status.code() != sva::StatusCode::kSafetyViolation) {
      result->Fail("canary: out-of-bounds call returned " +
                   r.status.ToString());
    }
    return ns;
  }
  uint64_t pick = Draw(plan_.seed, i) % plan_.total_weight;
  const CallKind* call = &plan_.calls.back();
  for (const CallKind& c : plan_.calls) {
    if (pick < c.weight) {
      call = &c;
      break;
    }
    pick -= c.weight;
  }
  uint64_t arg = call->scatter ? Draw(plan_.seed, i, 1) % kScatterObjects
                               : call->arg;
  uint64_t t0 = NowNs();
  sva::svm::ExecResult r;
  {
    Span span(Layer::kSvm);
    r = modules_[call->module]->Run(call->entry, {arg});
  }
  uint64_t ns = NowNs() - t0;
  steps_ += r.steps;
  uint64_t want = call->scatter ? ScatterExpected(arg) : call->want_value;
  if (!r.status.ok()) {
    result->Fail("@" + call->entry + ": " + r.status.ToString());
  } else if (r.value != want ||
             (!call->scatter && r.steps != call->want_steps)) {
    result->Fail("@" + call->entry + "(" + std::to_string(arg) +
                 "): got " + std::to_string(r.value) + " in " +
                 std::to_string(r.steps) + " steps, want " +
                 std::to_string(want));
  }
  return ns;
}

sva::runtime::CheckStats Modules::Checks() const {
  sva::runtime::CheckStats sum;
  for (const auto& m : modules_) {
    const sva::runtime::CheckStats& s = m->pools().stats();
    sum.bounds_performed += s.bounds_performed;
    sum.loadstore_performed += s.loadstore_performed;
    sum.indirect_performed += s.indirect_performed;
    sum.frees_checked += s.frees_checked;
    sum.bounds_failed += s.bounds_failed;
    sum.loadstore_failed += s.loadstore_failed;
    sum.indirect_failed += s.indirect_failed;
    sum.frees_failed += s.frees_failed;
    sum.registrations += s.registrations;
    sum.drops += s.drops;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.splay_comparisons += s.splay_comparisons;
  }
  return sum;
}

void Modules::EndCounters(RunResult* result, uint64_t ops) {
  sva::runtime::CheckStats a = Checks();
  const sva::runtime::CheckStats& b = before_;
  auto per = [ops](uint64_t n) {
    return ops == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(ops);
  };
  result->Set("runtime.checks_per_op",
              per(a.total_performed() - b.total_performed()), "count");
  result->Set("runtime.registrations_per_op",
              per(a.registrations - b.registrations), "count");
  result->Set("runtime.drops_per_op", per(a.drops - b.drops), "count");
  uint64_t lookups = (a.cache_hits - b.cache_hits) +
                     (a.cache_misses - b.cache_misses);
  result->Set("runtime.cache_hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(a.cache_hits - b.cache_hits) /
                                 static_cast<double>(lookups),
              "ratio");
  result->Set("runtime.splay_comparisons_per_lookup",
              lookups == 0
                  ? 0.0
                  : static_cast<double>(a.splay_comparisons -
                                        b.splay_comparisons) /
                        static_cast<double>(lookups),
              "count");
  result->Set("runtime.failed_checks",
              static_cast<double>(a.total_failed() - b.total_failed()),
              "count");
  result->Set("svm.steps_per_call", per(steps_ - steps_before_), "count");
  ReportEpochCounters(result, epochs_before_, EpochCounters::Read(), ops);
  const sva::trace::TierCounters& tiers = sva::trace::TierCounters::Get();
  uint64_t threaded = tiers.threaded_fns.load() - tiers_before_[0];
  uint64_t interp = tiers.interp_fns.load() - tiers_before_[1];
  result->Set("svm.threaded_fn_ratio",
              threaded + interp == 0
                  ? 0.0
                  : static_cast<double>(threaded) /
                        static_cast<double>(threaded + interp),
              "ratio");
}

}  // namespace

RunResult RunBytecodeExec(const Options& options) {
  Result<Plan> plan = MakePlan(options.seed);
  if (!plan.ok()) {
    RunResult result;
    result.Broken("oracle: " + plan.status().ToString());
    return result;
  }
  WorkloadSpec spec;
  spec.chunk = 512;
  spec.replay_modes = {KernelMode::kNative, KernelMode::kSvaSafe};
  spec.breakdown = [](RunResult* result, const std::vector<double>& ns,
                      double safe_ns) {
    double runtime = ns[1] - ns[0];
    double gap = safe_ns - ns[0];
    result->Set("ref.native_ops_per_s", ns[0] > 0 ? 1e9 / ns[0] : 0, "1/s");
    result->Set("runtime.ns_per_op", runtime, "ns");
    result->Set("breakdown.gap_ns_per_op", gap, "ns");
    result->Set("breakdown.residual_ns_per_op", gap - runtime, "ns");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "checks-off vs checks-on replay (ns/call): off %.1f | on "
                  "%.1f | runtime checks %+.1f | measured gap %+.1f | "
                  "residual %+.1f",
                  ns[0], ns[1], runtime, gap, gap - runtime);
    result->info.push_back(buf);
  };
  spec.digest = [&](uint64_t ops) {
    uint64_t h = kFnvBasis;
    for (uint64_t i = 0; i < ops; ++i) {
      h = Fnv(Fnv(Fnv(h, Draw(options.seed, i) % plan->total_weight),
                  Draw(options.seed, i, 1) % kScatterObjects),
              Draw(options.seed, i, 3) % kCanaryPeriod == 0);
    }
    return h;
  };
  return RunWorkload(options, spec, [&]() -> std::unique_ptr<ReplayTarget> {
    return std::make_unique<Modules>(*plan, options.disarm_canary);
  });
}

}  // namespace svabench
