// syscall_mix: one thread, one booted SVA-Safe kernel, closed loop. Each
// operation is a seeded draw, at equal weights, from a Table-7-shaped set
// (getpid, stat, open+read+close, create+write+unlink, pipe write+read,
// brk, sigaction, fork+exit+waitpid) over a ramfs working set of seeded
// file sizes.
//
// It loads the kernel's dispatch and vfs, the SVA-OS entry path, the
// metapool runtime on its write side (registration and drop churn from
// open/close, create/unlink and fork), and COW fork in mm. The net stack
// and the SVM stay idle.
#include <cmath>
#include <cstring>

#include "harness.h"
#include "replay.h"

namespace svabench {
namespace {

constexpr int kFiles = 64;
constexpr uint64_t kMinFileBytes = 64;
constexpr uint64_t kMaxFileBytes = 16384;
constexpr uint64_t kMaxWriteBytes = 4096;
constexpr int kScratchNames = 8;
// On average one operation in this many is a safety canary.
constexpr uint64_t kCanaryPeriod = 4096;

// The current task's user-memory layout (its first 64 KiB are mapped at
// creation; everything below stays inside them).
constexpr uint64_t kPipeFdsAt = 0x0100;
constexpr uint64_t kReadBufAt = 0x1000;    // Up to kMaxFileBytes.
constexpr uint64_t kSourceAt = 0x6000;     // kMaxWriteBytes of source bytes.
constexpr uint64_t kPipeReadAt = 0x8000;   // Up to kMaxWriteBytes.
constexpr uint64_t kPathsAt = 0xA000;      // kFiles paths, 64 bytes each.
constexpr uint64_t kScratchAt = 0xB000;    // kScratchNames paths.
// The userspace metapool object of a task is its 1 MiB window; a buffer
// starting 32 bytes before its end straddles out of it.
constexpr uint64_t kUserWindow = 0x100000;

enum class Kind : uint8_t {
  kGetPid,
  kStat,
  kOpenReadClose,
  kCreateWriteUnlink,
  kPipe,
  kBrk,
  kSigaction,
  kFork,
  kCanary,
};

// The mix gives each of the eight operations the same weight. No published
// count of how often each of these calls occurs is at hand, and Table 7
// (HBench-OS) times every call on its own, giving each row equal standing;
// equal weights add no tuning constant of this benchmark's own. Fork is
// one operation in eight, not rare: see perfbench/README.md, "Assumptions".
constexpr Kind kMix[] = {Kind::kGetPid, Kind::kStat,
                         Kind::kOpenReadClose, Kind::kCreateWriteUnlink,
                         Kind::kPipe, Kind::kBrk,
                         Kind::kSigaction, Kind::kFork};
constexpr uint64_t kMixKinds = sizeof(kMix) / sizeof(kMix[0]);

struct Op {
  Kind kind = Kind::kGetPid;
  uint64_t a = 0;  // File index / length / signal, by kind.
  uint64_t b = 0;
};

Op DrawOp(uint64_t seed, uint64_t i, bool canaries) {
  Op op;
  if (canaries && Draw(seed, i, 3) % kCanaryPeriod == 0) {
    op.kind = Kind::kCanary;
    return op;
  }
  op.kind = kMix[Draw(seed, i) % kMixKinds];
  uint64_t r = Draw(seed, i, 1);
  switch (op.kind) {
    case Kind::kStat:
    case Kind::kOpenReadClose:
      op.a = r % kFiles;
      break;
    case Kind::kCreateWriteUnlink:
    case Kind::kPipe:
      op.a = 1 + r % kMaxWriteBytes;         // Length.
      op.b = Draw(seed, i, 2) % kScratchNames;  // Scratch name / offset.
      break;
    case Kind::kBrk:
      op.a = (1 + r % 8) * 4096;  // Grow then shrink by this much.
      break;
    case Kind::kSigaction:
      op.a = 1 + r % 30;      // Signal.
      op.b = 1 + (r >> 8) % 1000;  // Handler id.
      break;
    default:
      break;
  }
  return op;
}

// The seeded working set, shared by every kernel a run boots.
struct Plan {
  uint64_t seed = 0;
  std::vector<std::vector<uint8_t>> files;
  std::vector<uint8_t> source;
};

Plan MakePlan(uint64_t seed) {
  Plan plan;
  plan.seed = seed;
  Rng rng(seed ^ 0xf11e5);
  // Log-uniform sizes between 64 B and 16 KiB, one per stratum, dealt to
  // the files in a seeded order: every seed sees the same size
  // distribution, so runs with different seeds measure the same work.
  std::vector<int> rank(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    rank[static_cast<size_t>(f)] = f;
  }
  for (int f = kFiles - 1; f > 0; --f) {
    std::swap(rank[static_cast<size_t>(f)],
              rank[rng.Below(static_cast<uint64_t>(f) + 1)]);
  }
  for (int f = 0; f < kFiles; ++f) {
    double frac = (rank[static_cast<size_t>(f)] + 0.5) / kFiles;
    uint64_t size = static_cast<uint64_t>(
        static_cast<double>(kMinFileBytes) *
        std::pow(static_cast<double>(kMaxFileBytes / kMinFileBytes), frac));
    std::vector<uint8_t> bytes(size);
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    plan.files.push_back(std::move(bytes));
  }
  plan.source.resize(kMaxWriteBytes);
  for (uint8_t& byte : plan.source) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  return plan;
}

std::string FilePath(int f) { return "/data/f" + std::to_string(f); }
std::string ScratchPath(uint64_t s) { return "/tmp/w" + std::to_string(s); }

class MixKernel : public OpTarget {
 public:
  MixKernel(const Plan& plan, bool disarm) : plan_(plan), disarm_(disarm) {}

  Status Setup(KernelMode mode, SetupTimes* times) override {
    uint64_t t0 = NowNs();
    SVA_ASSIGN_OR_RETURN(box_, KernelBox::Boot(mode));
    uint64_t t1 = NowNs();
    SVA_RETURN_IF_ERROR(Prefill());
    uint64_t t2 = NowNs();
    if (times != nullptr) {
      times->boot_ms = static_cast<double>(t1 - t0) / 1e6;
      times->prefill_ms = static_cast<double>(t2 - t1) / 1e6;
    }
    return sva::OkStatus();
  }

  void BeginCounters() override {
    before_ = KernelCounters::Read(*box_);
  }
  void EndCounters(RunResult* result, uint64_t ops) override {
    ReportKernelCounters(result, before_, KernelCounters::Read(*box_),
                         ops);
  }

  // Runs operation i and returns the nanoseconds its system calls took;
  // a wrong result is recorded in `result` as a failed operation.
  uint64_t RunOp(uint64_t i, bool canaries, RunResult* result) override;

 private:
  Status Prefill();
  // A syscall whose transport must succeed and whose value must equal
  // `want`; otherwise records a failure and returns false.
  bool Expect(const char* what, const Result<uint64_t>& r, uint64_t want,
              RunResult* result);
  bool ExpectFd(const char* what, const Result<uint64_t>& r, uint64_t* fd,
                RunResult* result);
  bool CheckBytes(const char* what, uint64_t uaddr, const uint8_t* want,
                  uint64_t len, RunResult* result);

  const Plan& plan_;
  const bool disarm_;
  std::unique_ptr<KernelBox> box_;
  uint64_t pipe_r_ = 0;
  uint64_t pipe_w_ = 0;
  uint64_t null_fd_ = 0;
  uint64_t brk_ = 0;
  std::vector<uint8_t> scratch_;
  KernelCounters before_;
};

Status MixKernel::Prefill() {
  KernelBox& k = *box_;
  auto must = [](const Result<uint64_t>& r, const char* what) -> Status {
    if (!r.ok()) {
      return r.status();
    }
    if (IsErrno(*r)) {
      return sva::Internal(std::string("prefill: ") + what + " failed");
    }
    return sva::OkStatus();
  };
  SVA_RETURN_IF_ERROR(k.Poke(k.user(kSourceAt), plan_.source.data(),
                             plan_.source.size()));
  for (int f = 0; f < kFiles; ++f) {
    uint64_t path = k.user(kPathsAt + static_cast<uint64_t>(f) * 64);
    SVA_RETURN_IF_ERROR(k.PokeString(path, FilePath(f)));
    Result<uint64_t> fd = k.Call(Sys::kOpen, path, 1);
    SVA_RETURN_IF_ERROR(must(fd, "create"));
    const std::vector<uint8_t>& bytes = plan_.files[static_cast<size_t>(f)];
    SVA_RETURN_IF_ERROR(k.Poke(k.user(kReadBufAt), bytes.data(), bytes.size()));
    Result<uint64_t> wrote =
        k.Call(Sys::kWrite, *fd, k.user(kReadBufAt), bytes.size());
    SVA_RETURN_IF_ERROR(must(wrote, "fill"));
    if (*wrote != bytes.size()) {
      return sva::Internal("prefill: short write");
    }
    SVA_RETURN_IF_ERROR(must(k.Call(Sys::kClose, *fd), "close"));
  }
  for (uint64_t s = 0; s < kScratchNames; ++s) {
    SVA_RETURN_IF_ERROR(
        k.PokeString(k.user(kScratchAt + s * 64), ScratchPath(s)));
  }
  SVA_RETURN_IF_ERROR(k.PokeString(k.user(0), "/dev/null"));
  Result<uint64_t> null_fd = k.Call(Sys::kOpen, k.user(0), 0);
  SVA_RETURN_IF_ERROR(must(null_fd, "open /dev/null"));
  null_fd_ = *null_fd;
  SVA_RETURN_IF_ERROR(must(k.Call(Sys::kPipe, k.user(kPipeFdsAt)), "pipe"));
  uint32_t fds[2] = {0, 0};
  SVA_RETURN_IF_ERROR(k.Peek(k.user(kPipeFdsAt), fds, sizeof(fds)));
  pipe_r_ = fds[0];
  pipe_w_ = fds[1];
  Result<uint64_t> brk = k.Call(Sys::kBrk, 0);
  SVA_RETURN_IF_ERROR(must(brk, "brk"));
  brk_ = *brk;
  scratch_.resize(kMaxFileBytes);
  return sva::OkStatus();
}

bool MixKernel::Expect(const char* what, const Result<uint64_t>& r,
                       uint64_t want, RunResult* result) {
  if (!r.ok()) {
    result->Fail(std::string(what) + ": " + r.status().ToString());
    return false;
  }
  if (*r != want) {
    result->Fail(std::string(what) + ": got " + std::to_string(*r) +
                 ", want " + std::to_string(want));
    return false;
  }
  return true;
}

bool MixKernel::ExpectFd(const char* what, const Result<uint64_t>& r,
                         uint64_t* fd, RunResult* result) {
  if (!r.ok() || IsErrno(*r)) {
    result->Fail(std::string(what) + ": " +
                 (r.ok() ? "errno " + std::to_string(-static_cast<int64_t>(*r))
                         : r.status().ToString()));
    return false;
  }
  *fd = *r;
  return true;
}

bool MixKernel::CheckBytes(const char* what, uint64_t uaddr,
                           const uint8_t* want, uint64_t len,
                           RunResult* result) {
  Status peeked = box_->Peek(uaddr, scratch_.data(), len);
  if (!peeked.ok() || std::memcmp(scratch_.data(), want, len) != 0) {
    result->Fail(std::string(what) + ": data mismatch");
    return false;
  }
  return true;
}

uint64_t MixKernel::RunOp(uint64_t i, bool canaries, RunResult* result) {
  KernelBox& k = *box_;
  const Op op = DrawOp(plan_.seed, i, canaries);
  ++result->attempted;
  uint64_t t0 = NowNs();
  uint64_t t1 = 0;
  switch (op.kind) {
    case Kind::kGetPid: {
      Result<uint64_t> r = k.Call(Sys::kGetPid);
      t1 = NowNs();
      Expect("getpid", r, 1, result);
      break;
    }
    case Kind::kStat: {
      Result<uint64_t> r = k.Call(Sys::kStat, k.user(kPathsAt + op.a * 64));
      t1 = NowNs();
      Expect("stat size", r, plan_.files[op.a].size(), result);
      break;
    }
    case Kind::kOpenReadClose: {
      const std::vector<uint8_t>& want = plan_.files[op.a];
      uint64_t fd = 0;
      if (!ExpectFd("open", k.Call(Sys::kOpen, k.user(kPathsAt + op.a * 64), 0),
                    &fd, result)) {
        t1 = NowNs();
        break;
      }
      Result<uint64_t> got =
          k.Call(Sys::kRead, fd, k.user(kReadBufAt), want.size());
      Result<uint64_t> closed = k.Call(Sys::kClose, fd);
      t1 = NowNs();
      if (Expect("read length", got, want.size(), result) &&
          Expect("close", closed, 0, result)) {
        CheckBytes("read-back", k.user(kReadBufAt), want.data(), want.size(),
                   result);
      }
      break;
    }
    case Kind::kCreateWriteUnlink: {
      uint64_t path = k.user(kScratchAt + op.b * 64);
      uint64_t fd = 0;
      if (!ExpectFd("create", k.Call(Sys::kOpen, path, 1), &fd, result)) {
        t1 = NowNs();
        break;
      }
      Result<uint64_t> wrote = k.Call(Sys::kWrite, fd, k.user(kSourceAt), op.a);
      Result<uint64_t> size = k.Call(Sys::kStat, path);
      Result<uint64_t> closed = k.Call(Sys::kClose, fd);
      Result<uint64_t> gone = k.Call(Sys::kUnlink, path);
      t1 = NowNs();
      (void)(Expect("write length", wrote, op.a, result) &&
             Expect("stat after write", size, op.a, result) &&
             Expect("close", closed, 0, result) &&
             Expect("unlink", gone, 0, result));
      break;
    }
    case Kind::kPipe: {
      uint64_t off = op.b * 64;  // Source offset, so payloads differ.
      uint64_t len = std::min(op.a, kMaxWriteBytes - off);
      Result<uint64_t> wrote =
          k.Call(Sys::kWrite, pipe_w_, k.user(kSourceAt + off), len);
      Result<uint64_t> got =
          k.Call(Sys::kRead, pipe_r_, k.user(kPipeReadAt), len);
      t1 = NowNs();
      if (Expect("pipe write", wrote, len, result) &&
          Expect("pipe read", got, len, result)) {
        CheckBytes("pipe data", k.user(kPipeReadAt), plan_.source.data() + off,
                   len, result);
      }
      break;
    }
    case Kind::kBrk: {
      Result<uint64_t> grown = k.Call(Sys::kBrk, op.a);
      Result<uint64_t> shrunk = k.Call(Sys::kBrk, static_cast<uint64_t>(
                                                      -static_cast<int64_t>(op.a)));
      t1 = NowNs();
      (void)(Expect("brk grow", grown, brk_ + op.a, result) &&
             Expect("brk shrink", shrunk, brk_, result));
      break;
    }
    case Kind::kSigaction: {
      Result<uint64_t> r = k.Call(Sys::kSigaction, op.a, op.b);
      t1 = NowNs();
      Expect("sigaction", r, 0, result);
      break;
    }
    case Kind::kFork: {
      uint64_t child = 0;
      if (!ExpectFd("fork", k.Call(Sys::kFork), &child, result)) {
        t1 = NowNs();
        break;
      }
      Status yielded;
      {
        Span span(Layer::kKernel, kYieldDetail);
        yielded = k.k().Yield();
      }
      Result<uint64_t> exited = k.Call(Sys::kExit, 0);
      Result<uint64_t> reaped = k.Call(Sys::kWaitPid, child);
      t1 = NowNs();
      if (!yielded.ok()) {
        result->Fail("yield: " + yielded.ToString());
      } else if (Expect("exit", exited, 0, result) &&
                 Expect("waitpid", reaped, child, result) &&
                 k.k().current_pid() != 1) {
        result->Fail("fork: parent not current after reap");
      }
      break;
    }
    case Kind::kCanary: {
      // A write whose user buffer straddles past the end of the userspace
      // object: the Section 4.6 check in CheckUserRange must refuse it.
      // Disarmed (test hook), the buffer stays inside and nothing trips.
      uint64_t uaddr = k.user(disarm_ ? kSourceAt : kUserWindow - 32);
      uint64_t failed_before = k.k().pools().stats().total_failed();
      Result<uint64_t> r = k.Call(Sys::kWrite, null_fd_, uaddr, 64);
      t1 = NowNs();
      uint64_t failed_after = k.k().pools().stats().total_failed();
      if (r.ok() || r.status().code() != sva::StatusCode::kSafetyViolation ||
          failed_after != failed_before + 1) {
        result->Fail("canary: straddling user buffer was not caught");
      }
      break;
    }
  }
  return t1 - t0;
}

}  // namespace

RunResult RunSyscallMix(const Options& options) {
  const Plan plan = MakePlan(options.seed);
  WorkloadSpec spec;
  spec.replay_modes = {KernelMode::kNative, KernelMode::kSvaGcc,
                       KernelMode::kSvaLlvm, KernelMode::kSvaSafe};
  spec.breakdown = [](RunResult* result, const std::vector<double>& ns,
                      double safe_ns) {
    ReportBreakdown(result, ns.data(), safe_ns);
  };
  spec.digest = [&](uint64_t ops) {
    uint64_t h = kFnvBasis;
    for (uint64_t i = 0; i < ops; ++i) {
      Op op = DrawOp(options.seed, i, true);
      h = Fnv(Fnv(Fnv(h, static_cast<uint64_t>(op.kind)), op.a), op.b);
    }
    return h;
  };
  return RunWorkload(options, spec, [&]() -> std::unique_ptr<ReplayTarget> {
    return std::make_unique<MixKernel>(plan, options.disarm_canary);
  });
}

}  // namespace svabench
