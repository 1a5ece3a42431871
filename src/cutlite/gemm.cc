#include "cutlite/gemm.h"

#include <algorithm>
#include <cmath>

namespace bolt {
namespace cutlite {

Status GemmKernel::CanImplement(const DeviceSpec& spec) const {
  BOLT_RETURN_IF_ERROR(config_.Validate(spec));
  if (problem_.m <= 0 || problem_.n <= 0 || problem_.k <= 0) {
    return Status::InvalidArgument("empty GEMM problem");
  }
  // Alignment feasibility: the declared vector width must divide the
  // contiguous dimension of each operand (K for A and W, N for D).
  if (problem_.k % config_.align_a != 0) {
    return Status::InvalidArgument(
        StrCat("align_a=", config_.align_a, " does not divide K=",
               problem_.k));
  }
  if (problem_.k % config_.align_b != 0) {
    return Status::InvalidArgument(
        StrCat("align_b=", config_.align_b, " does not divide K=",
               problem_.k));
  }
  if (problem_.n % config_.align_c != 0) {
    return Status::InvalidArgument(
        StrCat("align_c=", config_.align_c, " does not divide N=",
               problem_.n));
  }
  if (config_.split_k > 1 &&
      CeilDiv(problem_.k, config_.split_k) < config_.threadblock.k) {
    return Status::InvalidArgument(
        StrCat("split_k=", config_.split_k,
               " leaves slices smaller than ThreadBlock_K"));
  }
  return Status::Ok();
}

Result<Tensor> GemmKernel::Run(const GemmArguments& args) const {
  BOLT_CHECK(args.a != nullptr && args.w != nullptr);
  const int64_t m = problem_.m, n = problem_.n, k = problem_.k;
  BOLT_CHECK_MSG(args.a->shape()[0] == m && args.a->shape()[1] == k,
                 "A shape mismatch");
  BOLT_CHECK_MSG(args.w->shape()[0] == n && args.w->shape()[1] == k,
                 "W shape mismatch");
  if (epilogue_.has_bias) BOLT_CHECK(args.bias != nullptr);
  if (epilogue_.beta != 0.0f || epilogue_.has_residual) {
    BOLT_CHECK(args.c != nullptr);
  }
  if (epilogue_.column_reduction) {
    BOLT_CHECK_MSG(args.column_sums != nullptr,
                   "column_reduction epilogue needs an output slot");
    *args.column_sums =
        Tensor(TensorDesc(DType::kFloat32, {n}, Layout::kRowMajor));
  }

  Tensor out(TensorDesc(epilogue_.output_dtype, {m, n}, Layout::kRowMajor));
  // Tiled traversal in the CUTLASS order: threadblock tiles over M, N
  // (and K slices under split-K); the K loop innermost per tile. Split-K
  // slices produce FP32 partials that are reduced before the epilogue,
  // exactly as the parallel-split-K reduction kernel does.
  const int tb_m = config_.threadblock.m, tb_n = config_.threadblock.n;
  const int64_t slices = config_.split_k;
  const int64_t k_per_slice = CeilDiv(k, slices);
  for (int64_t m0 = 0; m0 < m; m0 += tb_m) {
    for (int64_t n0 = 0; n0 < n; n0 += tb_n) {
      const int64_t m1 = std::min<int64_t>(m0 + tb_m, m);
      const int64_t n1 = std::min<int64_t>(n0 + tb_n, n);
      for (int64_t i = m0; i < m1; ++i) {
        for (int64_t j = n0; j < n1; ++j) {
          float acc = 0.0f;
          const float* arow = args.a->data().data() + i * k;
          const float* wrow = args.w->data().data() + j * k;
          for (int64_t s = 0; s < slices; ++s) {
            float partial = 0.0f;
            const int64_t k0 = s * k_per_slice;
            const int64_t k1 = std::min<int64_t>(k0 + k_per_slice, k);
            for (int64_t kk = k0; kk < k1; ++kk) {
              partial += arow[kk] * wrow[kk];
            }
            acc += partial;  // workspace reduction
          }
          const float src = args.c != nullptr ? args.c->at(i * n + j) : 0.0f;
          const float b =
              epilogue_.has_bias ? args.bias->at(j) : 0.0f;
          const float d = ApplyEpilogueElement(epilogue_, acc, src, b);
          out.at(i * n + j) = d;
          if (epilogue_.column_reduction) {
            args.column_sums->at(j) += d;  // FP32 partial reduction
          }
        }
      }
    }
  }
  return out;
}

namespace {

// Pipeline ramp efficiency: short K loops pay the multi-stage prologue.
// With split-K, each slice runs its own (shorter) main loop.
double KLoopEfficiency(const GemmCoord& p, const KernelConfig& c) {
  const int64_t k_per_slice = CeilDiv(p.k, c.split_k);
  const double k_iters =
      std::max<double>(1.0, CeilDiv(k_per_slice, c.threadblock.k));
  return k_iters / (k_iters + c.stages);
}

// Warp-level compute/shared-memory-bandwidth balance: flops per byte of
// smem->RF operand traffic is wM*wN / (wM + wN); small warp tiles starve
// the tensor cores (this is the paper's "prefer large warp tiles" rule).
double WarpTileEfficiency(const DeviceSpec& spec, const KernelConfig& c,
                          int ctas_per_sm) {
  const double flops_per_smem_byte =
      static_cast<double>(c.warp.mn()) / (c.warp.m + c.warp.n);
  const double tc_per_sm = spec.tensor_flops() / spec.sm_count;
  // Shared-memory bandwidth per SM feeds all resident CTAs together.
  const double smem_limited =
      spec.smem_gbps_per_sm * 1e9 * flops_per_smem_byte;
  (void)ctas_per_sm;
  return std::min(1.0, smem_limited / tc_per_sm);
}

// Issue-efficiency of the mainloop (pointer arithmetic, predicates).
// Ampere's cp.async pipeline removes most of the staging overhead that
// Turing pays, which is how the paper's generated code exceeds 95% of the
// A100's theoretic peak (Section 3.2.3).
double MainloopIssueEfficiency(const DeviceSpec& spec) {
  return spec.arch == "sm80" ? 0.97 : 0.92;
}

}  // namespace

KernelTiming EstimateGemmMainloop(const DeviceSpec& spec,
                                  const GemmCoord& p,
                                  const KernelConfig& c,
                                  const EpilogueSpec& epilogue,
                                  bool reads_c, bool read_a_from_global,
                                  bool write_d_to_global,
                                  const CtaResources* resource_override) {
  KernelTiming t;
  const CtaResources res =
      resource_override != nullptr ? *resource_override : c.Resources();
  const int ctas_per_sm = CtasPerSm(spec, res);
  BOLT_CHECK_MSG(ctas_per_sm > 0, "config does not fit device: "
                                      << c.Name() << " on " << spec.name);
  const int64_t tiles_m = CeilDiv(p.m, c.threadblock.m);
  const int64_t tiles_n = CeilDiv(p.n, c.threadblock.n);
  const int64_t cta_count = tiles_m * tiles_n * c.split_k;
  const int64_t capacity =
      static_cast<int64_t>(ctas_per_sm) * spec.sm_count;

  // --- Compute bound ---------------------------------------------------
  const int resident_warps = ctas_per_sm * c.warps_per_cta();
  const double lat = LatencyHidingFactor(spec, resident_warps);
  const double warp_eff = WarpTileEfficiency(spec, c, ctas_per_sm);
  const double k_eff = KLoopEfficiency(p, c);
  // Tail tiles (partial M/N coverage) still occupy full tile compute;
  // split-K slices round their K chunk up to the slice boundary.
  const double padded_flops = 2.0 * (tiles_m * c.threadblock.m) *
                              (tiles_n * c.threadblock.n) *
                              (CeilDiv(p.k, c.split_k) * c.split_k);
  // Fraction of SMs with at least one CTA.
  const double active_frac =
      std::min(1.0, static_cast<double>(cta_count) / spec.sm_count);
  const double util = lat * warp_eff * k_eff *
                      MainloopIssueEfficiency(spec) * active_frac *
                      ComputeAlignmentFactor(c.min_alignment());
  t.utilization = util;
  t.compute_us = ComputeTimeUs(padded_flops, spec.tensor_flops(), util);

  // --- Memory bound ----------------------------------------------------
  // Wave-unique DRAM traffic: concurrently resident CTAs form a gm x gn
  // block of output tiles (shaped by the swizzle); each wave streams the
  // union of its A row-strips and B column-strips from DRAM once.
  const int64_t resident = std::min<int64_t>(capacity, cta_count);
  const int64_t gn = std::min<int64_t>(SwizzleWidth(c.swizzle), tiles_n);
  const int64_t gm = std::min<int64_t>(CeilDiv(resident, gn), tiles_m);
  const double waves =
      std::max(1.0, static_cast<double>(cta_count) / capacity);
  double a_bytes = read_a_from_global
                       ? waves * gm * c.threadblock.m * p.k * 2.0
                       : 0.0;
  double b_bytes = waves * gn * c.threadblock.n * p.k * 2.0;
  if (read_a_from_global) {
    // Clamp to [compulsory, naive re-read] range.
    a_bytes = std::clamp(a_bytes, p.m * p.k * 2.0,
                         static_cast<double>(tiles_n) * p.m * p.k * 2.0);
  }
  b_bytes = std::clamp(b_bytes, p.n * p.k * 2.0,
                       static_cast<double>(tiles_m) * p.n * p.k * 2.0);
  // Split-K slices write FP32 partials to a workspace instead of the
  // FP16 output (the reduction pass is costed by the caller).
  double d_bytes = 0.0;
  if (write_d_to_global) {
    d_bytes = c.split_k > 1 ? c.split_k * p.m * p.n * 4.0
                            : p.m * p.n * 2.0;
  }
  if (reads_c) d_bytes += p.m * p.n * 2.0;
  t.dram_bytes = a_bytes + b_bytes + d_bytes;
  const double mem_eff = AlignmentEfficiency(c.min_alignment());
  t.memory_us = MemoryTimeUs(t.dram_bytes, spec.dram_gbps, mem_eff);

  // --- Combine ----------------------------------------------------------
  const double quant = WaveQuantization(cta_count, capacity);
  t.mainloop_us = std::max(t.compute_us, t.memory_us) * quant;

  // Fused epilogue arithmetic overlaps with the mainloop of other tiles;
  // only half its cost is exposed.
  const double epi_flops = static_cast<double>(p.m) * p.n *
                           epilogue.CostMultiplier();
  t.epilogue_us = 0.5 * ComputeTimeUs(epi_flops, spec.simt_fp32_flops(),
                                      std::max(0.25, lat));

  t.ctas_per_sm = ctas_per_sm;
  t.cta_count = cta_count;
  t.total_us = t.mainloop_us + t.epilogue_us;
  return t;
}

KernelTiming GemmKernel::Estimate(const DeviceSpec& spec) const {
  const bool reads_c = epilogue_.beta != 0.0f || epilogue_.has_residual;
  KernelTiming t = EstimateGemmMainloop(spec, problem_, config_, epilogue_,
                                        reads_c);
  t.launch_us = spec.kernel_launch_us;
  if (config_.split_k > 1) {
    // Parallel split-K reduction kernel: read all FP32 partials, write
    // the FP16 result, plus its own launch.
    const double partial_bytes =
        static_cast<double>(config_.split_k) * problem_.m * problem_.n *
        4.0;
    const double out_bytes =
        static_cast<double>(problem_.m) * problem_.n * 2.0;
    t.mainloop_us +=
        MemoryTimeUs(partial_bytes + out_bytes, spec.dram_gbps, 1.0);
    t.launch_us += spec.kernel_launch_us;
  }
  t.total_us = t.mainloop_us + t.epilogue_us + t.launch_us;
  return t;
}

VendorPeakResult VendorPeakGemm(const DeviceSpec& spec,
                                const GemmCoord& problem) {
  // Exhaustive sweep over the native template space — the oracle a vendor
  // hand-tuned library (cuBLAS) approximates.
  static constexpr int kTileDims[] = {32, 64, 128, 256};
  static constexpr int kTileK[] = {32, 64};
  VendorPeakResult best;
  best.us = std::numeric_limits<double>::infinity();
  for (int tbm : kTileDims) {
    for (int tbn : kTileDims) {
      for (int tbk : kTileK) {
        for (int wm : {32, 64}) {
          for (int wn : {32, 64}) {
            for (int stages : {2, 3}) {
              KernelConfig c;
              c.threadblock = GemmShape(tbm, tbn, tbk);
              c.warp = GemmShape(wm, wn, tbk);
              c.instruction = GemmShape(spec.mma_m, spec.mma_n, spec.mma_k);
              c.stages = stages;
              c.swizzle = Swizzle::kIdentity8;
              const int ka = MaxAlignment(problem.k);
              c.align_a = ka;
              c.align_b = ka;
              c.align_c = MaxAlignment(problem.n);
              GemmKernel kernel(problem, c, EpilogueSpec::Linear());
              if (!kernel.CanImplement(spec).ok()) continue;
              const double us = kernel.EstimateUs(spec);
              if (us < best.us) {
                best.us = us;
                best.config = c;
              }
            }
          }
        }
      }
    }
  }
  BOLT_CHECK_MSG(std::isfinite(best.us),
                 "no valid vendor config for " << problem.ToString());
  best.tflops = problem.flops() / best.us / 1e6;
  return best;
}

}  // namespace cutlite
}  // namespace bolt
