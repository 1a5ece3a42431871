#include "cutlite/conv.h"

#include <algorithm>
#include <cmath>

#include "cpukernels/backend.h"
#include "cpukernels/conv.h"
#include "cpukernels/tuned.h"

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

Result<Tensor> Conv2dKernel::Run(const Tensor& x, const Tensor& weight,
                                 const Tensor* bias,
                                 const Tensor* residual) const {
  const ConvProblem& p = problem_;
  BOLT_CHECK_MSG(x.layout() == Layout::kNHWC, "conv kernel expects NHWC");
  BOLT_CHECK(x.shape()[0] == p.n && x.shape()[1] == p.h &&
             x.shape()[2] == p.w && x.shape()[3] == p.c);
  BOLT_CHECK(weight.shape()[0] == p.k && weight.shape()[1] == p.r &&
             weight.shape()[2] == p.s && weight.shape()[3] == p.c);
  if (epilogue_.has_bias) BOLT_CHECK(bias != nullptr);

  const int64_t oh = p.out_h(), ow = p.out_w();
  if (!epilogue_.column_reduction &&
      cpukernels::DefaultBackend() == cpukernels::Backend::kFastCpu) {
    // Delegate every config, split-K or not, to the blocked implicit-GEMM
    // CPU kernel (same ascending (r, s, c) accumulation order and epilogue
    // arithmetic — results are bit-identical to the direct loop below up
    // to the sign of zero; the direct loop ignores split_k as well).
    cpukernels::ConvParams cp;
    cp.stride_h = p.stride_h;
    cp.stride_w = p.stride_w;
    cp.pad_h = p.pad_h;
    cp.pad_w = p.pad_w;
    cpukernels::Epilogue epi;
    epi.alpha = epilogue_.alpha;
    epi.beta = epilogue_.beta;
    if (epilogue_.has_bias) epi.bias = bias->data().data();
    if (epilogue_.has_residual || epilogue_.beta != 0.0f) {
      BOLT_CHECK(residual != nullptr);
      epi.residual = residual->data().data();
    }
    epi.acts = epilogue_.activations;
    epi.output_dtype = epilogue_.output_dtype;
    // A profiler-tuned block for this implicit-GEMM shape, else the host
    // default block (cpukernels/tuned.h).
    const cpukernels::ConvGemmShape shape =
        cpukernels::ResolveConvGemmShape(x, weight, cp);
    const cpukernels::BlockConfig block =
        cpukernels::FindTunedBlock(cpukernels::TunedKind::kConv, shape.m,
                                   shape.n, shape.k, x.layout())
            .value_or(cpukernels::BlockConfig{});
    return cpukernels::Conv2d(x, weight, cp, epi, block,
                              &cpukernels::ProcessPool());
  }
  std::vector<int64_t> oshape = {p.n, oh, ow, p.k};
  Tensor out(TensorDesc(epilogue_.output_dtype, oshape, Layout::kNHWC));
  const auto& xs = x.shape();
  for (int64_t in = 0; in < p.n; ++in) {
    for (int64_t ih = 0; ih < oh; ++ih) {
      for (int64_t iw = 0; iw < ow; ++iw) {
        for (int64_t ik = 0; ik < p.k; ++ik) {
          float acc = 0.0f;
          for (int64_t r = 0; r < p.r; ++r) {
            const int64_t sh = ih * p.stride_h + r - p.pad_h;
            if (sh < 0 || sh >= p.h) continue;
            for (int64_t s = 0; s < p.s; ++s) {
              const int64_t sw = iw * p.stride_w + s - p.pad_w;
              if (sw < 0 || sw >= p.w) continue;
              const float* xp =
                  x.data().data() + IndexNHWC(xs, in, sh, sw, 0);
              const float* wp = weight.data().data() +
                                ((ik * p.r + r) * p.s + s) * p.c;
              for (int64_t ic = 0; ic < p.c; ++ic) acc += xp[ic] * wp[ic];
            }
          }
          const int64_t oi = IndexNHWC(oshape, in, ih, iw, ik);
          const float src = residual != nullptr ? residual->at(oi) : 0.0f;
          const float b = epilogue_.has_bias ? bias->at(ik) : 0.0f;
          out.at(oi) = ApplyEpilogueElement(epilogue_, acc, src, b);
        }
      }
    }
  }
  return out;
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
