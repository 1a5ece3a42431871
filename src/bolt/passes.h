// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Bolt's computational-graph optimization passes (Section 3.1, 3.2.3):
//
//  1. LayoutTransformPass  — rewrite NCHW models to NHWC (CUTLASS's conv
//     layout), leaving explicit transform nodes at the graph boundary that
//     the code generator folds into the first/last kernels.  It and
//     LayoutSearchPass are one layout rewrite under two policies: "every
//     rank-4 activation in NHWC" and "the searched region layout".
//  2. EpilogueFusionPass   — fold BiasAdd / activation / residual-add
//     chains after conv2d/dense anchors into bolt.* composite ops carrying
//     a declarative EpilogueSpec.
//  3. PersistentKernelFusionPass — fuse chains of back-to-back bolt.gemm /
//     bolt.conv2d composites into persistent-kernel ops when threadblock
//     residence holds and the profiler confirms a benefit.
//  4. PaddingPass          — pad channel dimensions that are not divisible
//     by 8 so kernels can use alignment-8 (128-bit) accesses, when the
//     speedup outweighs the padding copy.
//
// Every pass is a pure Graph -> Graph rewrite, unit-testable in isolation.

#pragma once

#include "ir/graph.h"
#include "profiler/profiler.h"

namespace bolt {

/// Statistics a pass reports (for tests and the DESIGN.md ablations).
struct PassStats {
  int epilogues_fused = 0;      // ops folded into anchors
  int persistent_fused = 0;     // persistent kernels created
  int persistent_stages = 0;    // total stages inside them
  int tensors_padded = 0;
  int layout_transforms_inserted = 0;
  /// Boundary edges where adjacent layout regions agreed, so no transform
  /// node was needed (LayoutSearchPass).
  int layout_transforms_elided = 0;
  int batchnorms_folded = 0;
};

/// Rewrite every rank-4 activation to NHWC.  A value is transformed where
/// its first consumer needs another layout (NCHW / NCHWc inputs before
/// the first conv), and graph outputs return to their original layout.
/// Flatten and Softmax read the layout the model gave them, except on a
/// 1x1 map, whose element order is the same in every layout.  Non-4D
/// graphs pass through unchanged.
Graph LayoutTransformPass(const Graph& graph, PassStats* stats = nullptr);

/// ALT-style joint layout search: partitions the primitive-op graph into
/// layout-flexible regions (conv anchors plus elementwise companions),
/// lets each region choose NCHW / NHWC / blocked NCHWc via the hostcost
/// layout model, rewrites region ops to the chosen layout, and inserts
/// boundary kLayoutTransform nodes only where adjacent partitions
/// disagree — agreeing boundaries elide the transform (counted in
/// PassStats::layout_transforms_elided). Nodes outside a region keep their
/// own layout; the rewrite is LayoutTransformPass's with that policy.
/// Graph outputs keep their original layout. Must run before fusion, like
/// LayoutTransformPass.
Graph LayoutSearchPass(const Graph& graph, const DeviceSpec& spec,
                       PassStats* stats = nullptr);

/// Fold inference BatchNorm into a preceding single-consumer conv2d:
/// conv -> BN becomes conv (per-output-channel scaled weights) -> BiasAdd,
/// which epilogue fusion then absorbs. BatchNorms that do not follow a
/// conv are left for the host. Framework models arrive with BN; this is
/// the standard lowering TVM applies before BYOC partitioning.
Graph FoldBatchNormPass(const Graph& graph, PassStats* stats = nullptr);

/// Convert conv2d/dense anchors into bolt.conv2d / bolt.gemm composites.
/// When `fuse_chains` is true, single-consumer BiasAdd / Activation /
/// residual-Add chains are folded into the composite's epilogue.
Graph EpilogueFusionPass(const Graph& graph, bool fuse_chains = true,
                         PassStats* stats = nullptr);

/// Fuse back-to-back bolt.gemm / bolt.conv2d composites into persistent
/// kernels (bolt.b2b_gemm / bolt.b2b_conv) when threadblock residence is
/// satisfiable and the profiler measures a speedup.
Graph PersistentKernelFusionPass(const Graph& graph, Profiler& profiler,
                                 PassStats* stats = nullptr);

/// Pad unaligned channel dimensions of bolt.conv2d composites to the next
/// multiple of 8 when profitable; pads constant weights eagerly and inserts
/// a kPadChannels node for the activation operand.
Graph PaddingPass(const Graph& graph, Profiler& profiler,
                  PassStats* stats = nullptr);

/// --- helpers shared with the engine -----------------------------------

/// Reads the epilogue stored on a bolt.* composite node. `prefix` selects
/// the stage for b2b composites ("s0_", "s1_", ...; empty for plain ops).
cutlite::EpilogueSpec EpilogueFromAttrs(const AttrMap& attrs,
                                        const std::string& prefix = "");

/// Writes an epilogue into a node's attrs under `prefix`.
void EpilogueToAttrs(const cutlite::EpilogueSpec& epilogue, AttrMap& attrs,
                     const std::string& prefix = "");

/// Derives the ConvProblem of a bolt.conv2d composite (or one stage of a
/// b2b composite) from the graph.
cutlite::ConvProblem ConvProblemOf(const Graph& graph, const Node& node,
                                   int stage = 0);

/// Derives the GemmCoord of a bolt.gemm composite (or b2b stage).
cutlite::GemmCoord GemmProblemOf(const Graph& graph, const Node& node,
                                 int stage = 0);

}  // namespace bolt
