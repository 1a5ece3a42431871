#include "cutlite/conv.h"

#include <algorithm>
#include <cmath>

namespace bolt {
namespace cutlite {

Status Conv2dKernel::CanImplement(const DeviceSpec& spec) const {
  BOLT_RETURN_IF_ERROR(config_.Validate(spec));
  const ConvProblem& p = problem_;
  if (p.n <= 0 || p.c <= 0 || p.k <= 0 || p.out_h() <= 0 || p.out_w() <= 0) {
    return Status::InvalidArgument("degenerate conv problem");
  }
  // NHWC: the contiguous dimension of activations and filters is C, and of
  // the output is K. The declared alignments must divide them.
  if (p.c % config_.align_a != 0) {
    return Status::InvalidArgument(
        StrCat("align_a=", config_.align_a, " does not divide C=", p.c));
  }
  if (p.c % config_.align_b != 0) {
    return Status::InvalidArgument(
        StrCat("align_b=", config_.align_b, " does not divide C=", p.c));
  }
  if (p.k % config_.align_c != 0) {
    return Status::InvalidArgument(
        StrCat("align_c=", config_.align_c, " does not divide K=", p.k));
  }
  return Status::Ok();
}

KernelTiming EstimateConvMainloop(const DeviceSpec& spec,
                                  const ConvProblem& p,
                                  const KernelConfig& c,
                                  const EpilogueSpec& epilogue,
                                  bool read_input_from_global,
                                  bool write_output_to_global,
                                  const CtaResources* resource_override) {
  // Start from the implicit-GEMM compute model, then replace the DRAM
  // traffic with conv-aware terms.
  const GemmCoord g = p.AsGemm();
  KernelTiming t = EstimateGemmMainloop(spec, g, c, epilogue,
                                        /*reads_c=*/epilogue.has_residual,
                                        read_input_from_global,
                                        write_output_to_global,
                                        resource_override);

  const int ctas_per_sm = t.ctas_per_sm;
  const int64_t capacity = static_cast<int64_t>(ctas_per_sm) * spec.sm_count;
  const double waves =
      std::max(1.0, static_cast<double>(t.cta_count) / capacity);

  double a_bytes = 0.0;
  if (read_input_from_global) {
    // Activations: the filter-window overlap (R*S reuse) is captured by
    // smem staging plus L2; what reaches DRAM is approximately the input
    // tensor once per "M-pass", where an M-pass is a sweep of all output
    // rows. With tiles_n output-channel tiles and wave-blocked scheduling,
    // the input is re-streamed when the resident tile block cannot cover
    // all N tiles at once. A 15% halo overhead accounts for tile-edge
    // re-fetches.
    const int64_t tiles_n = CeilDiv(g.n, c.threadblock.n);
    const int64_t gn = std::min<int64_t>(SwizzleWidth(c.swizzle), tiles_n);
    const double n_passes =
        std::max(1.0, static_cast<double>(tiles_n) / gn / waves);
    a_bytes = p.input_bytes() * 1.15 * std::min<double>(n_passes, p.r * p.s);
  }
  // Weights: streamed once per wave (they are small and L2-resident
  // within a wave).
  const double b_bytes =
      std::min(static_cast<double>(p.weight_bytes()) * waves,
               static_cast<double>(t.cta_count) * c.threadblock.nk() * 2.0);
  double d_bytes = write_output_to_global ? p.output_bytes() : 0.0;
  if (epilogue.has_residual) d_bytes += p.output_bytes();

  t.dram_bytes = a_bytes + b_bytes + d_bytes;
  const double mem_eff = AlignmentEfficiency(c.min_alignment());
  // Small activations (production low-channel convs, Table 3) are usually
  // still L2-resident from the producer kernel.
  const double gbps = EffectiveReadGbps(
      spec, static_cast<double>(p.input_bytes() + p.output_bytes()));
  t.memory_us = MemoryTimeUs(t.dram_bytes, gbps, mem_eff);

  const double quant = WaveQuantization(t.cta_count, capacity);
  t.mainloop_us = std::max(t.compute_us, t.memory_us) * quant;
  t.total_us = t.mainloop_us + t.epilogue_us;
  return t;
}

KernelTiming Conv2dKernel::Estimate(const DeviceSpec& spec) const {
  KernelTiming t = EstimateConvMainloop(spec, problem_, config_, epilogue_);
  t.launch_us = spec.kernel_launch_us;
  t.total_us += t.launch_us;
  return t;
}

}  // namespace cutlite
}  // namespace bolt
