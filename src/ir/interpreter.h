// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Graph interpreter with two execution backends:
//
//  * kFastCpu (default): Conv2d/Dense run on the blocked, packed, epilogue-
//    fused CPU kernels in src/cpukernels (docs/CPU_BACKEND.md).  Chains of
//    anchor -> BiasAdd -> Activation* -> Add(residual) are folded into the
//    kernel's output write-back, and elementwise ops reuse their input
//    buffer when it has no other readers and is not a constant.  Because
//    the fast kernels
//    accumulate in the same ascending-k order as the naive loops and
//    quantize at the same op boundaries, results are bit-identical to the
//    reference backend for every blocking and thread count.
//
//  * kReference: the original naive per-op loops, kept as the oracle (see
//    RefExecutor below).  BOLT_CPU_BACKEND=ref selects it process-wide.
//
// The interpreter is the only executor.  Every kernel launch is a
// KernelStep: a primitive chain is a one-stage step planned here, and the
// Bolt engine lowers each bolt.* composite into a step once, at Compile,
// and hands the steps to its one Interpreter.  Engine::Run is that
// interpreter's Run, so host ops and offloaded kernels share the chain
// fusion, buffer stealing and tuned-block lookup.  Under the reference
// backend no primitive chains are planned, but composite steps still run,
// on the bit-exact scalar tier of the fast kernels (serial, no registry).
//
// Constants are read-only and bound by reference: a constant node's env
// slot stays empty, every operand is read through Interpreter::Operand
// (which resolves constants to the graph's own tensor), no kernel ever
// steals or writes a constant's buffer, and a graph output that is a
// constant is copied out.  A Run therefore never copies the weights.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "cpukernels/backend.h"
#include "cpukernels/config.h"
#include "cpukernels/conv.h"
#include "cpukernels/epilogue.h"
#include "cpukernels/tuned.h"
#include "ir/graph.h"
#include "ir/tensor.h"

namespace bolt {

/// Per-op reference kernels.
namespace refop {

Tensor Conv2d(const Tensor& x, const Tensor& w, const Conv2dAttrs& attrs);
Tensor Dense(const Tensor& x, const Tensor& w);
Tensor BiasAdd(const Tensor& x, const Tensor& bias);
Tensor Activation(const Tensor& x, ActivationKind kind);
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor MaxPool2d(const Tensor& x, int64_t kernel, int64_t stride);
Tensor GlobalAvgPool(const Tensor& x);
Tensor Flatten(const Tensor& x);
Tensor Softmax(const Tensor& x);
Tensor LayoutTransform(const Tensor& x, Layout to);
/// Pads the channel dimension (NHWC C, or dense K) with zeros up to
/// `padded_channels`.
Tensor PadChannels(const Tensor& x, int64_t padded_channels);
/// Inference batch normalization over the channel axis.
Tensor BatchNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 const Tensor& mean, const Tensor& var, float eps);
/// Channel-axis concatenation of rank-4 tensors (same layout).
Tensor Concat(const std::vector<const Tensor*>& parts);

/// In-place variants: mutate `x` directly instead of allocating a full
/// output copy.  Numerics are identical to the copying forms above.
void BiasAddInPlace(Tensor& x, const Tensor& bias);
void ActivationInPlace(Tensor& x, ActivationKind kind);
void AddInPlace(Tensor& x, const Tensor& other);
void MulInPlace(Tensor& x, const Tensor& other);

}  // namespace refop

/// Execution knobs for the interpreter.
struct InterpreterOptions {
  /// Kernel backend for Conv2d/Dense.  Defaults to the fast CPU kernels
  /// unless BOLT_CPU_BACKEND=ref overrides process-wide.
  cpukernels::Backend backend = cpukernels::DefaultBackend();
  /// Fold BiasAdd / Activation / residual-Add chains into the producing
  /// kernel's write-back (fast backend only).
  bool fuse_epilogues = true;
  /// Parallelize kernels over output row panels using the shared process
  /// pool (fast backend only).  Ignored when `pool` is set.
  bool parallel = true;
  /// Explicit thread pool override; null means "per `parallel`".
  ThreadPool* pool = nullptr;
  /// Cache blocking for the fast kernels.
  cpukernels::BlockConfig block;
  /// Consult the process-wide tuned-block registry (cpukernels/tuned.h)
  /// per kernel launch, falling back to `block` on a miss.  The reference
  /// oracle disables this so its numerics can never depend on tuning
  /// state (the registry additionally ignores lookups under the ref
  /// backend — belt and braces).
  bool use_tuned_blocks = true;
};

/// One kernel launch sequence of the fast CPU kernels: one or more
/// GEMM / implicit-GEMM conv stages, stage i+1 reading stage i's output,
/// each with its epilogue fused into the write-back.  The result lands in
/// env[result].
struct KernelStep {
  enum class Kind { kGemm, kConv };
  struct Stage {
    Kind kind = Kind::kGemm;
    NodeId weight = -1;
    NodeId bias = -1;  // -1 if absent
    cpukernels::ConvParams conv;  // kConv only
    /// Everything but the operand pointers, which Run binds: a primitive
    /// chain quantizes at op boundaries (boundary_quantize), a bolt.*
    /// composite quantizes once on store (cutlite mode).
    cpukernels::Epilogue epilogue;
  };
  NodeId result = -1;
  NodeId activation = -1;  // stage 0's input
  NodeId residual = -1;    // added by the last stage, -1 if absent
  std::vector<Stage> stages;
};

/// Executes a graph of primitive ops plus `steps`, the planned launches of
/// its composite bolt.* nodes (keyed by KernelStep::result).  A composite
/// node without a step is rejected.
class Interpreter {
 public:
  explicit Interpreter(const Graph& graph, InterpreterOptions options = {},
                       std::vector<KernelStep> steps = {});

  /// Runs the graph. `inputs` maps input-node names to tensors.
  Result<std::vector<Tensor>> Run(
      const std::map<std::string, Tensor>& inputs) const;

  /// Executes one node of the graph into `env` (indexed by NodeId, sized
  /// num_nodes(); every earlier node already executed).  A fused-chain
  /// member does nothing: the whole step runs at its result node.  A
  /// constant does nothing either (see Operand).  May move a single-reader
  /// non-constant input out of `env`.  An input whose shape differs from
  /// its node's declared shape is rejected with InvalidArgument.
  Status RunNode(const Node& n, const std::map<std::string, Tensor>& inputs,
                 std::vector<Tensor>& env) const;

  /// The value of node `id` during a walk over `env`: the graph's own
  /// tensor for a materialized constant, env[id] otherwise.
  const Tensor& Operand(const std::vector<Tensor>& env, NodeId id) const {
    return consts_[id] != nullptr ? *consts_[id] : env[id];
  }

  /// Copies the graph outputs out of a finished walk over `env`.
  std::vector<Tensor> Outputs(const std::vector<Tensor>& env) const;

  const InterpreterOptions& options() const { return options_; }

 private:
  /// Plans one step per Conv2d/Dense anchor, folding the BiasAdd /
  /// Activation / residual-Add chain behind it into its write-back.
  void BuildPlan();
  ThreadPool* ResolvePool() const;
  cpukernels::BlockConfig BlockFor(cpukernels::TunedKind kind, int64_t m,
                                   int64_t n, int64_t k, Layout layout) const;
  Tensor RunStep(const KernelStep& step,
                 const std::vector<Tensor>& env) const;
  /// True when env[src] may be moved out and overwritten by its reader:
  /// it has exactly one reader, is not a graph output, and is not a
  /// constant (constants are never written).
  bool Stealable(NodeId src) const;
  /// Moves env[src] out if Stealable; copies its Operand otherwise.
  Tensor TakeOrCopy(std::vector<Tensor>& env, NodeId src) const;

  const Graph& graph_;
  InterpreterOptions options_;
  bool fast_ = false;
  std::map<NodeId, KernelStep> steps_;    // keyed by KernelStep::result
  std::vector<char> fused_member_;        // chain nodes other than result
  std::vector<int> uses_;                 // consumer-edge counts
  std::vector<char> is_output_;
  std::vector<const Tensor*> consts_;     // materialized constants by node
};

/// The naive reference oracle: per-op loops, no fusion, no threads, full
/// op-boundary copies.  Differential tests run this against the fast
/// backend; results must match bit-for-bit.
class RefExecutor {
 public:
  explicit RefExecutor(const Graph& graph)
      : interp_(graph, ReferenceOptions()) {}

  Result<std::vector<Tensor>> Run(
      const std::map<std::string, Tensor>& inputs) const {
    return interp_.Run(inputs);
  }

  static InterpreterOptions ReferenceOptions() {
    InterpreterOptions o;
    o.backend = cpukernels::Backend::kReference;
    o.fuse_epilogues = false;
    o.parallel = false;
    o.use_tuned_blocks = false;  // the oracle must ignore tuning state
    return o;
  }

 private:
  Interpreter interp_;
};

}  // namespace bolt
