#include "src/smp/vcpu.h"

namespace sva::smp {

SvaOsStats& SvaOsStats::operator+=(const SvaOsStats& other) {
  save_integer += other.save_integer;
  load_integer += other.load_integer;
  save_fp += other.save_fp;
  save_fp_skipped += other.save_fp_skipped;
  load_fp += other.load_fp;
  icontext_created += other.icontext_created;
  icontext_committed += other.icontext_committed;
  ipush_function += other.ipush_function;
  syscalls_dispatched += other.syscalls_dispatched;
  interrupts_dispatched += other.interrupts_dispatched;
  mmu_ops += other.mmu_ops;
  mmu_protects += other.mmu_protects;
  mmu_checks_failed += other.mmu_checks_failed;
  tlb_shootdowns += other.tlb_shootdowns;
  io_ops += other.io_ops;
  return *this;
}

VirtualCpu::VirtualCpu(unsigned id, hw::Cpu* external)
    : id_(id), cpu_(external ? external : &owned_cpu_) {}

InterruptContext* VirtualCpu::PushContext(uint64_t id) {
  InterruptContext* icp = &icontext_slab_[icontext_depth_ % kMaxNestedContexts];
  ++icontext_depth_;
  icp->id_ = id;
  icp->committed_ = false;
  icp->from_privileged_ = false;
  icp->pushed_.clear();
  return icp;
}

void VirtualCpu::PopContext(InterruptContext* icp) {
  if (icontext_depth_ > 0 &&
      icp == &icontext_slab_[(icontext_depth_ - 1) % kMaxNestedContexts]) {
    --icontext_depth_;
  }
}

VirtualMultiprocessor::VirtualMultiprocessor(hw::Cpu& boot_cpu)
    : boot_cpu_(boot_cpu) {
  cpus_.push_back(std::make_unique<VirtualCpu>(0, &boot_cpu_));
}

void VirtualMultiprocessor::Configure(unsigned n) {
  if (n < 1) n = 1;
  if (n > kMaxCpus) n = kMaxCpus;
  while (cpus_.size() > n) cpus_.pop_back();
  while (cpus_.size() < n) {
    auto ap = std::make_unique<VirtualCpu>(static_cast<unsigned>(cpus_.size()));
    // Application processors come out of the boot trampoline with the boot
    // CPU's control state (same privilege level and handler table).
    ap->cpu().control() = boot_cpu_.control();
    cpus_.push_back(std::move(ap));
  }
}

SvaOsStats VirtualMultiprocessor::AggregateStats() const {
  SvaOsStats total;
  for (const auto& cpu : cpus_) total += cpu->stats();
  return total;
}

void VirtualMultiprocessor::ResetStats() {
  for (auto& cpu : cpus_) cpu->stats() = SvaOsStats{};
}

}  // namespace sva::smp
