// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Computational-graph IR, modeled after TVM's Relay at the granularity Bolt
// needs: single-output operator nodes in topological order, attribute maps,
// and a builder with shape inference.  Bolt's graph passes (epilogue fusion,
// persistent-kernel fusion, layout transform, padding) rewrite this IR, and
// the BYOC partitioner carves Bolt regions out of it.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/activations.h"
#include "common/status.h"
#include "ir/tensor.h"

namespace bolt {

enum class OpKind {
  kInput,
  kConstant,
  // Compute-intensive anchors.
  kConv2d,
  kDense,
  // Element-wise / epilogue-eligible ops.
  kBiasAdd,
  kActivation,
  kAdd,
  kMul,
  kCast,
  // Structural ops.
  kMaxPool2d,
  kGlobalAvgPool,
  kFlatten,
  kSoftmax,
  kLayoutTransform,
  kPadChannels,
  /// Inference-mode batch normalization over the channel axis:
  /// y = gamma * (x - mean) / sqrt(var + eps) + beta.
  /// Inputs: [x, gamma, beta, mean, var]; attr "eps".
  kBatchNorm,
  /// Channel-axis concatenation of two or more rank-4 activations.
  kConcat,
  // Composite ops produced by Bolt's fusion passes.
  kBoltGemm,     // dense + fused epilogue chain
  kBoltConv2d,   // conv2d + fused epilogue chain
  kBoltB2BGemm,  // two back-to-back fused GEMMs (persistent kernel)
  kBoltB2BConv,  // two back-to-back fused Convs (persistent kernel)
};

const char* OpKindName(OpKind kind);

/// Attribute value: int, float, string or int-list.
using AttrValue =
    std::variant<int64_t, double, std::string, std::vector<int64_t>>;

/// Ordered attribute map (ordered so printing is deterministic).
class AttrMap {
 public:
  void SetInt(const std::string& key, int64_t v) { map_[key] = v; }
  void SetFloat(const std::string& key, double v) { map_[key] = v; }
  void SetStr(const std::string& key, std::string v) {
    map_[key] = std::move(v);
  }
  void SetInts(const std::string& key, std::vector<int64_t> v) {
    map_[key] = std::move(v);
  }

  bool Has(const std::string& key) const { return map_.count(key) > 0; }

  int64_t GetInt(const std::string& key, int64_t def = 0) const;
  double GetFloat(const std::string& key, double def = 0.0) const;
  std::string GetStr(const std::string& key,
                     const std::string& def = "") const;
  std::vector<int64_t> GetInts(const std::string& key) const;

  const std::map<std::string, AttrValue>& raw() const { return map_; }

 private:
  std::map<std::string, AttrValue> map_;
};

using NodeId = int;

/// One single-output operator in the graph.
struct Node {
  NodeId id = -1;
  OpKind kind = OpKind::kInput;
  std::string name;
  std::vector<NodeId> inputs;
  TensorDesc out_desc;
  AttrMap attrs;
};

/// A DAG of nodes. Node ids index into nodes() and are created in
/// topological order by the builder; passes that rewrite the graph must
/// preserve this invariant (RebuildTopological verifies/restores it).
class Graph {
 public:
  const std::vector<Node>& nodes() const { return nodes_; }
  std::vector<Node>& nodes() { return nodes_; }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  Node& node(NodeId id) { return nodes_.at(id); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  const std::vector<NodeId>& input_ids() const { return input_ids_; }
  const std::vector<NodeId>& output_ids() const { return output_ids_; }
  void set_outputs(std::vector<NodeId> ids) { output_ids_ = std::move(ids); }

  /// Constant payloads, keyed by node id of the kConstant node.
  const std::map<NodeId, Tensor>& constants() const { return constants_; }
  const Tensor& constant(NodeId id) const { return constants_.at(id); }
  bool is_constant(NodeId id) const { return constants_.count(id) > 0; }
  void set_constant(NodeId id, Tensor t) { constants_[id] = std::move(t); }

  NodeId AddNode(Node node);
  void AddInput(NodeId id) { input_ids_.push_back(id); }

  /// Ids of nodes that consume `id` as an input.
  std::vector<NodeId> Consumers(NodeId id) const;

  /// Number of consumers of `id` (cheaper than Consumers().size()).
  int NumConsumers(NodeId id) const;

  /// Verifies every node's inputs have smaller ids (topological order) and
  /// all referenced ids exist.
  Status Validate() const;

  /// Pretty-print, one node per line.
  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
  std::vector<NodeId> input_ids_;
  std::vector<NodeId> output_ids_;
  std::map<NodeId, Tensor> constants_;
};

/// Convenience attributes for conv2d nodes.
struct Conv2dAttrs {
  int64_t stride_h = 1, stride_w = 1;
  int64_t pad_h = 0, pad_w = 0;
  int64_t dilation_h = 1, dilation_w = 1;
  // Weight shape is [O, kh, kw, I] regardless of activation layout.
  static Conv2dAttrs FromNode(const Node& n);
  void ToAttrs(AttrMap& attrs) const;
};

/// Builder with shape inference; produces nodes in topological order.
class GraphBuilder {
 public:
  explicit GraphBuilder(DType default_dtype = DType::kFloat16,
                        Layout act_layout = Layout::kNHWC)
      : dtype_(default_dtype), act_layout_(act_layout) {}

  NodeId Input(const std::string& name, std::vector<int64_t> shape,
               Layout layout);
  NodeId Input(const std::string& name, std::vector<int64_t> shape);
  /// Input with an explicit descriptor (its own dtype, not the builder's
  /// default); used by passes that re-issue an existing graph's inputs.
  NodeId Input(const std::string& name, TensorDesc desc);
  NodeId Constant(const std::string& name, Tensor value);
  /// Constant with shape/dtype only, no materialized payload (used for
  /// large model weights when only timing is needed; functional execution
  /// of such graphs fails with a clear error).
  NodeId ConstantDesc(const std::string& name, TensorDesc desc);

  /// 2-D convolution. `x` is NCHW, NHWC, or blocked NCHWc (which requires
  /// C and OC divisible by kNCHWcBlock); weight is a constant of shape
  /// [O, kh, kw, I]. Output layout matches input layout.
  NodeId Conv2d(NodeId x, NodeId weight, const Conv2dAttrs& attrs,
                const std::string& name = "");

  /// Dense / fully-connected: x [M, K] x weight [N, K] -> [M, N].
  NodeId Dense(NodeId x, NodeId weight, const std::string& name = "");

  /// Adds a rank-1 bias over the channel (or N) dimension.
  NodeId BiasAdd(NodeId x, NodeId bias, const std::string& name = "");

  NodeId Activation(NodeId x, ActivationKind kind,
                    const std::string& name = "");
  NodeId Add(NodeId a, NodeId b, const std::string& name = "");
  NodeId Mul(NodeId a, NodeId b, const std::string& name = "");
  NodeId Cast(NodeId x, DType dtype, const std::string& name = "");

  /// Inference BatchNorm; parameter operands are rank-1 [C] constants.
  NodeId BatchNorm(NodeId x, NodeId gamma, NodeId beta, NodeId mean,
                   NodeId var, double eps = 1e-5,
                   const std::string& name = "");

  /// Concatenate rank-4 tensors along the channel axis.
  NodeId Concat(const std::vector<NodeId>& parts,
                const std::string& name = "");

  NodeId MaxPool2d(NodeId x, int64_t kernel, int64_t stride,
                   const std::string& name = "");
  NodeId GlobalAvgPool(NodeId x, const std::string& name = "");
  NodeId Flatten(NodeId x, const std::string& name = "");
  NodeId Softmax(NodeId x, const std::string& name = "");
  NodeId LayoutTransform(NodeId x, Layout to, const std::string& name = "");

  void MarkOutput(NodeId id) { outputs_.push_back(id); }

  /// Finalize: validates and returns the graph.
  Result<Graph> Build();

  Graph& graph() { return graph_; }
  DType dtype() const { return dtype_; }
  Layout act_layout() const { return act_layout_; }

 private:
  NodeId AddOp(OpKind kind, std::vector<NodeId> inputs, TensorDesc out,
               AttrMap attrs, const std::string& name);
  std::string AutoName(OpKind kind);

  Graph graph_;
  std::vector<NodeId> outputs_;
  DType dtype_;
  Layout act_layout_;
  int name_counter_ = 0;
};

}  // namespace bolt
