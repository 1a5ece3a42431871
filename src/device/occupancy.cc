#include "device/occupancy.h"

#include <algorithm>
#include <cmath>

namespace bolt {

int CtasPerSm(const DeviceSpec& spec, const CtaResources& res) {
  if (res.threads <= 0 || res.threads > spec.max_threads_per_sm) return 0;
  if (res.smem_bytes > spec.max_smem_per_cta) return 0;
  if (res.regs_per_thread > spec.max_regs_per_thread) return 0;

  int by_threads = spec.max_threads_per_sm / res.threads;
  int by_smem = res.smem_bytes > 0
                    ? static_cast<int>(spec.smem_per_sm / res.smem_bytes)
                    : spec.max_ctas_per_sm;
  int64_t regs_cta = static_cast<int64_t>(res.regs_per_thread) * res.threads;
  int by_regs = regs_cta > 0 ? static_cast<int>(spec.regs_per_sm / regs_cta)
                             : spec.max_ctas_per_sm;
  int result = std::min({by_threads, by_smem, by_regs, spec.max_ctas_per_sm});
  return std::max(result, 0);
}

double LatencyHidingFactor(const DeviceSpec& spec, int resident_warps) {
  (void)spec;
  if (resident_warps <= 0) return 0.0;
  // Saturates at 8 warps; 4 warps still run well (0.85), 1-2 warps poorly.
  static constexpr double kTable[9] = {0.0,  0.40, 0.60, 0.72, 0.85,
                                       0.90, 0.94, 0.97, 1.0};
  if (resident_warps >= 8) return 1.0;
  return kTable[resident_warps];
}

double WaveQuantization(int64_t cta_count, int64_t capacity) {
  if (cta_count <= 0 || capacity <= 0) return 1.0;
  const double w = static_cast<double>(cta_count) / capacity;
  if (w <= 1.0) return 1.0;  // single (partial) wave: handled by util terms
  return std::ceil(w) / w;
}

}  // namespace bolt
