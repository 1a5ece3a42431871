#include "cutlite/b2b.h"

#include <algorithm>
#include <cmath>

namespace bolt {
namespace cutlite {

namespace {

// Combined per-CTA resource footprint of a persistent kernel: the stage
// pipelines share the threadblock, so threads come from stage 0, shared
// memory is the max stage pipeline (plus the staged intermediate tile for
// smem residence), and the RF strategy keeps the next stage's accumulator
// fragment live on top of the current one.
template <typename Stage>
CtaResources CombinedResources(const std::vector<Stage>& stages,
                               ResidenceKind residence, int64_t inter_n) {
  CtaResources res = stages.front().config.Resources();
  int64_t smem = 0;
  int regs = 0;
  for (const Stage& s : stages) {
    smem = std::max(smem, s.config.smem_bytes());
    regs = std::max(regs, s.config.regs_per_thread());
  }
  if (residence == ResidenceKind::kSharedMemory) {
    // Intermediate tile staged in shared memory (FP16).
    smem += static_cast<int64_t>(stages.front().config.threadblock.m) *
            inter_n * 2;
  } else {
    // Accumulator fragments of the later stages stay in the RF.
    for (size_t i = 1; i < stages.size(); ++i) {
      regs += static_cast<int>(stages[i].config.warp.mn() / 32);
    }
  }
  res.smem_bytes = smem;
  res.regs_per_thread = regs;
  return res;
}

Status CheckCommonGemmStructure(const std::vector<B2bStage>& stages) {
  if (stages.size() < 2) {
    return Status::InvalidArgument("persistent kernel needs >= 2 stages");
  }
  const int64_t m = stages.front().problem.m;
  const int tb_m = stages.front().config.threadblock.m;
  const int warps = stages.front().config.warps_per_cta();
  for (size_t i = 0; i < stages.size(); ++i) {
    const B2bStage& s = stages[i];
    if (s.problem.m != m) {
      return Status::FailedPrecondition(
          "persistent GEMM fusion requires equal M across stages");
    }
    if (s.config.split_k != 1) {
      return Status::FailedPrecondition(
          "split-K is incompatible with threadblock residence");
    }
    if (s.config.threadblock.m != tb_m) {
      return Status::FailedPrecondition(
          "all stages must share ThreadBlock_M");
    }
    if (s.config.warps_per_cta() != warps) {
      return Status::FailedPrecondition(
          "all stages must have matching warp counts");
    }
    if (i > 0 && stages[i].problem.k != stages[i - 1].problem.n) {
      return Status::FailedPrecondition(
          StrCat("stage ", i, " K=", stages[i].problem.k,
                 " does not chain from previous N=",
                 stages[i - 1].problem.n));
    }
  }
  return Status::Ok();
}

}  // namespace

Status CheckThreadblockResidenceGemm(const std::vector<B2bStage>& stages) {
  BOLT_RETURN_IF_ERROR(CheckCommonGemmStructure(stages));
  for (size_t i = 0; i < stages.size(); ++i) {
    const B2bStage& s = stages[i];
    // One threadblock tile must cover the entire N dimension of the stage
    // (ThreadBlock_N = GEMM_N, with N rounded up to the 8-wide MMA tile
    // for narrow layers).
    if (CeilDiv(s.problem.n, s.config.threadblock.n) != 1 ||
        s.config.threadblock.n > std::max<int64_t>(8, 2 * s.problem.n)) {
      return Status::FailedPrecondition(
          StrCat("threadblock residence violated at stage ", i,
                 ": ThreadBlock_N=", s.config.threadblock.n,
                 " does not tile GEMM_N=", s.problem.n, " exactly once"));
    }
  }
  return Status::Ok();
}

Status CheckRfResidenceGemm(const std::vector<B2bStage>& stages,
                            const DeviceSpec& spec) {
  BOLT_RETURN_IF_ERROR(CheckThreadblockResidenceGemm(stages));
  for (size_t i = 0; i < stages.size(); ++i) {
    const B2bStage& s = stages[i];
    if (s.config.warp.n != s.config.threadblock.n) {
      return Status::FailedPrecondition(
          StrCat("RF residence violated at stage ", i, ": Warp_N=",
                 s.config.warp.n, " != ThreadBlock_N=",
                 s.config.threadblock.n));
    }
  }
  const CtaResources res = CombinedResources(
      stages, ResidenceKind::kRegisterFile, stages.front().problem.n);
  if (res.regs_per_thread > spec.max_regs_per_thread) {
    return Status::ResourceExhausted(
        StrCat("RF-resident fusion needs ", res.regs_per_thread,
               " registers/thread (limit ", spec.max_regs_per_thread, ")"));
  }
  if (CtasPerSm(spec, res) == 0) {
    return Status::ResourceExhausted(
        "RF-resident fused kernel has zero occupancy");
  }
  return Status::Ok();
}

Result<B2bGemmKernel> B2bGemmKernel::Create(std::vector<B2bStage> stages,
                                            ResidenceKind residence,
                                            const DeviceSpec& spec) {
  for (const B2bStage& s : stages) {
    GemmKernel probe(s.problem, s.config, s.epilogue);
    Status st = probe.CanImplement(spec);
    if (!st.ok()) return st;
  }
  if (residence == ResidenceKind::kRegisterFile) {
    Status st = CheckRfResidenceGemm(stages, spec);
    if (!st.ok()) return st;
  } else {
    Status st = CheckThreadblockResidenceGemm(stages);
    if (!st.ok()) return st;
    const CtaResources res = CombinedResources(
        stages, ResidenceKind::kSharedMemory, stages.front().problem.n);
    if (res.smem_bytes > spec.max_smem_per_cta) {
      return Status::ResourceExhausted(
          StrCat("smem-resident fusion needs ", res.smem_bytes,
                 " B shared memory (limit ", spec.max_smem_per_cta, " B)"));
    }
    if (CtasPerSm(spec, res) == 0) {
      return Status::ResourceExhausted(
          "smem-resident fused kernel has zero occupancy");
    }
  }
  return B2bGemmKernel(std::move(stages), residence);
}

KernelTiming B2bGemmKernel::Estimate(const DeviceSpec& spec) const {
  const CtaResources combined = CombinedResources(
      stages_, residence_, stages_.front().problem.n);
  KernelTiming total;
  for (size_t i = 0; i < stages_.size(); ++i) {
    const B2bStage& s = stages_[i];
    const bool first = i == 0;
    const bool last = i + 1 == stages_.size();
    KernelTiming t = EstimateGemmMainloop(
        spec, s.problem, s.config, s.epilogue,
        /*reads_c=*/s.epilogue.has_residual,
        /*read_a_from_global=*/first,
        /*write_d_to_global=*/last, &combined);
    total.mainloop_us += t.mainloop_us;
    total.epilogue_us += t.epilogue_us;
    total.compute_us += t.compute_us;
    total.memory_us += t.memory_us;
    total.dram_bytes += t.dram_bytes;
    total.cta_count = std::max(total.cta_count, t.cta_count);
    total.ctas_per_sm = t.ctas_per_sm;
    total.utilization = std::max(total.utilization, t.utilization);
  }
  if (residence_ == ResidenceKind::kSharedMemory) {
    // RF -> smem -> RF round trip of every intermediate activation tile.
    for (size_t i = 0; i + 1 < stages_.size(); ++i) {
      const GemmCoord& p = stages_[i].problem;
      const double bytes = 2.0 * p.m * p.n * 2.0;  // store + load, FP16
      const double smem_bw_total =
          spec.smem_gbps_per_sm * spec.sm_count;  // GB/s aggregate
      total.mainloop_us += MemoryTimeUs(bytes, smem_bw_total, 1.0);
    }
  }
  total.launch_us = spec.kernel_launch_us;  // single launch
  total.total_us = total.mainloop_us + total.epilogue_us + total.launch_us;
  return total;
}

double B2bGemmKernel::EstimateUnfusedUs(const DeviceSpec& spec) const {
  double us = 0.0;
  for (const B2bStage& s : stages_) {
    GemmKernel k(s.problem, s.config, s.epilogue);
    us += k.EstimateUs(spec);
  }
  return us;
}

std::string B2bGemmKernel::Name() const {
  std::string name =
      StrCat("cutlite_tensorop_h_b2b_gemm_", ResidenceName(residence_));
  for (const B2bStage& s : stages_) {
    name += '_';
    name += s.config.threadblock.ToString();
  }
  return name;
}

Status CheckThreadblockResidenceConv(
    const std::vector<B2bConvStage>& stages) {
  if (stages.size() < 2) {
    return Status::InvalidArgument("persistent kernel needs >= 2 stages");
  }
  const B2bConvStage& first = stages.front();
  for (size_t i = 0; i < stages.size(); ++i) {
    const B2bConvStage& s = stages[i];
    if (CeilDiv(s.problem.k, s.config.threadblock.n) != 1 ||
        s.config.threadblock.n > std::max<int64_t>(8, 2 * s.problem.k)) {
      return Status::FailedPrecondition(
          StrCat("threadblock residence violated at conv stage ", i,
                 ": ThreadBlock_N=", s.config.threadblock.n,
                 " must cover output channels=", s.problem.k,
                 " in one tile"));
    }
    if (s.config.threadblock.m != first.config.threadblock.m) {
      return Status::FailedPrecondition(
          "all conv stages must share ThreadBlock_M");
    }
    if (s.config.warps_per_cta() != first.config.warps_per_cta()) {
      return Status::FailedPrecondition(
          "all conv stages must have matching warp counts");
    }
    if (i > 0) {
      if (!s.problem.IsPointwise()) {
        return Status::FailedPrecondition(
            StrCat("conv stage ", i,
                   " must be 1x1 / stride 1 / pad 0 for persistent fusion"));
      }
      if (s.problem.c != stages[i - 1].problem.k) {
        return Status::FailedPrecondition(
            StrCat("conv stage ", i, " input channels ", s.problem.c,
                   " do not chain from previous output channels ",
                   stages[i - 1].problem.k));
      }
      if (s.problem.n != stages[i - 1].problem.n ||
          s.problem.h != stages[i - 1].problem.out_h() ||
          s.problem.w != stages[i - 1].problem.out_w()) {
        return Status::FailedPrecondition(
            StrCat("conv stage ", i, " spatial shape does not chain"));
      }
    }
  }
  return Status::Ok();
}

Result<B2bConvKernel> B2bConvKernel::Create(
    std::vector<B2bConvStage> stages, ResidenceKind residence,
    const DeviceSpec& spec) {
  for (const B2bConvStage& s : stages) {
    Conv2dKernel probe(s.problem, s.config, s.epilogue);
    Status st = probe.CanImplement(spec);
    if (!st.ok()) return st;
  }
  Status st = CheckThreadblockResidenceConv(stages);
  if (!st.ok()) return st;
  if (residence == ResidenceKind::kRegisterFile) {
    for (size_t i = 0; i < stages.size(); ++i) {
      if (stages[i].config.warp.n != stages[i].config.threadblock.n) {
        return Status::FailedPrecondition(
            StrCat("RF residence violated at conv stage ", i));
      }
    }
  }
  const CtaResources res =
      CombinedResources(stages, residence, stages.front().problem.k);
  if (res.smem_bytes > spec.max_smem_per_cta) {
    return Status::ResourceExhausted("fused conv smem exceeds limit");
  }
  if (res.regs_per_thread > spec.max_regs_per_thread) {
    return Status::ResourceExhausted("fused conv RF pressure too high");
  }
  if (CtasPerSm(spec, res) == 0) {
    return Status::ResourceExhausted("fused conv kernel has zero occupancy");
  }
  return B2bConvKernel(std::move(stages), residence);
}

KernelTiming B2bConvKernel::Estimate(const DeviceSpec& spec) const {
  const CtaResources combined =
      CombinedResources(stages_, residence_, stages_.front().problem.k);
  KernelTiming total;
  for (size_t i = 0; i < stages_.size(); ++i) {
    const B2bConvStage& s = stages_[i];
    const bool first = i == 0;
    const bool last = i + 1 == stages_.size();
    KernelTiming t = EstimateConvMainloop(
        spec, s.problem, s.config, s.epilogue,
        /*read_input_from_global=*/first,
        /*write_output_to_global=*/last, &combined);
    total.mainloop_us += t.mainloop_us;
    total.epilogue_us += t.epilogue_us;
    total.compute_us += t.compute_us;
    total.memory_us += t.memory_us;
    total.dram_bytes += t.dram_bytes;
    total.cta_count = std::max(total.cta_count, t.cta_count);
    total.ctas_per_sm = t.ctas_per_sm;
  }
  if (residence_ == ResidenceKind::kSharedMemory) {
    for (size_t i = 0; i + 1 < stages_.size(); ++i) {
      const ConvProblem& p = stages_[i].problem;
      const double bytes = 2.0 * p.output_bytes();
      total.mainloop_us +=
          MemoryTimeUs(bytes, spec.smem_gbps_per_sm * spec.sm_count, 1.0);
    }
  }
  total.launch_us = spec.kernel_launch_us;
  total.total_us = total.mainloop_us + total.epilogue_us + total.launch_us;
  return total;
}

double B2bConvKernel::EstimateUnfusedUs(const DeviceSpec& spec) const {
  double us = 0.0;
  for (const B2bConvStage& s : stages_) {
    Conv2dKernel k(s.problem, s.config, s.epilogue);
    us += k.EstimateUs(spec);
  }
  return us;
}

std::string B2bConvKernel::Name() const {
  std::string name =
      StrCat("cutlite_tensorop_h_b2b_conv2d_", ResidenceName(residence_));
  for (const B2bConvStage& s : stages_) {
    name += '_';
    name += s.config.threadblock.ToString();
  }
  return name;
}

ResidenceChoice ChooseResidenceGemm(const std::vector<B2bStage>& stages,
                                    const DeviceSpec& spec) {
  ResidenceChoice choice;
  auto rf = B2bGemmKernel::Create(stages, ResidenceKind::kRegisterFile, spec);
  if (rf.ok()) {
    choice.rf_valid = true;
    choice.rf_us = rf.value().EstimateUs(spec);
  }
  auto sm =
      B2bGemmKernel::Create(stages, ResidenceKind::kSharedMemory, spec);
  if (sm.ok()) {
    choice.smem_valid = true;
    choice.smem_us = sm.value().EstimateUs(spec);
  }
  if (choice.rf_valid && choice.smem_valid) {
    choice.best = choice.rf_us <= choice.smem_us
                      ? ResidenceKind::kRegisterFile
                      : ResidenceKind::kSharedMemory;
  } else if (choice.smem_valid) {
    choice.best = ResidenceKind::kSharedMemory;
  } else {
    choice.best = ResidenceKind::kRegisterFile;
  }
  return choice;
}

}  // namespace cutlite
}  // namespace bolt
