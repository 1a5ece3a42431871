#include "bolt/passes.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "bolt/hostcost.h"
#include "cutlite/padding.h"
#include "ir/partition.h"

namespace bolt {

using cutlite::ConvProblem;
using cutlite::EpilogueSpec;
using cutlite::GemmCoord;

namespace {

/// Incremental re-builder: clones nodes of `old` into a fresh graph with
/// id remapping, letting passes substitute or insert nodes along the way.
class Rebuild {
 public:
  explicit Rebuild(const Graph& old)
      : old_(old), remap_(old.num_nodes(), -1) {}

  NodeId Copy(const Node& n) {
    Node m = n;
    m.inputs = Remapped(n.inputs);
    const NodeId id = out_.AddNode(std::move(m));
    if (n.kind == OpKind::kInput) out_.AddInput(id);
    if (n.kind == OpKind::kConstant && old_.is_constant(n.id)) {
      out_.set_constant(id, old_.constant(n.id));
    }
    remap_[n.id] = id;
    return id;
  }

  NodeId Emit(Node n) { return out_.AddNode(std::move(n)); }

  std::vector<NodeId> Remapped(const std::vector<NodeId>& ids) const {
    std::vector<NodeId> out;
    out.reserve(ids.size());
    for (NodeId id : ids) {
      BOLT_CHECK_MSG(remap_[id] >= 0, "node referenced before emission");
      out.push_back(remap_[id]);
    }
    return out;
  }

  NodeId remap(NodeId old_id) const { return remap_[old_id]; }
  void set_remap(NodeId old_id, NodeId new_id) { remap_[old_id] = new_id; }

  Graph Finish() {
    std::vector<NodeId> outs;
    for (NodeId id : old_.output_ids()) outs.push_back(remap_[id]);
    out_.set_outputs(std::move(outs));
    const Status st = out_.Validate();
    BOLT_CHECK_MSG(st.ok(), "pass produced invalid graph: " << st.ToString()
                                                            << "\n"
                                                            << out_.ToString());
    return std::move(out_);
  }

  Graph& graph() { return out_; }

 private:
  const Graph& old_;
  Graph out_;
  std::vector<NodeId> remap_;
};

}  // namespace

void EpilogueToAttrs(const EpilogueSpec& e, AttrMap& attrs,
                     const std::string& prefix) {
  std::vector<std::string> names;
  for (ActivationKind a : e.activations) names.push_back(ActivationName(a));
  attrs.SetStr(prefix + "acts", StrJoin(names, ","));
  attrs.SetInt(prefix + "has_bias", e.has_bias ? 1 : 0);
  attrs.SetInt(prefix + "has_residual", e.has_residual ? 1 : 0);
}

EpilogueSpec EpilogueFromAttrs(const AttrMap& attrs,
                               const std::string& prefix) {
  EpilogueSpec e;
  e.has_bias = attrs.GetInt(prefix + "has_bias") != 0;
  e.has_residual = attrs.GetInt(prefix + "has_residual") != 0;
  e.beta = e.has_residual ? 1.0f : 0.0f;
  const std::string acts = attrs.GetStr(prefix + "acts");
  if (!acts.empty()) {
    for (const std::string& name : StrSplit(acts, ',')) {
      auto k = ActivationFromName(name);
      BOLT_CHECK_MSG(k.ok(), "bad activation attr: " << name);
      e.activations.push_back(k.value());
    }
  }
  return e;
}

ConvProblem ConvProblemOf(const Graph& graph, const Node& node, int stage) {
  const std::string prefix =
      node.kind == OpKind::kBoltB2BConv ? StrCat("s", stage, "_") : "";
  const TensorDesc& xd = graph.node(node.inputs[0]).out_desc;
  BOLT_CHECK_MSG(xd.layout == Layout::kNHWC,
                 "bolt conv composites require NHWC input");
  ConvProblem p;
  p.n = xd.shape[0];
  p.h = xd.shape[1];
  p.w = xd.shape[2];
  p.c = xd.shape[3];
  p.stride_h = node.attrs.GetInt(prefix + "stride_h", 1);
  p.stride_w = node.attrs.GetInt(prefix + "stride_w", 1);
  p.pad_h = node.attrs.GetInt(prefix + "pad_h", 0);
  p.pad_w = node.attrs.GetInt(prefix + "pad_w", 0);

  // Locate this stage's weight among the inputs.
  int idx = 1;
  for (int s = 0; s < stage; ++s) {
    idx += 1;  // weight of stage s
    if (node.attrs.GetInt(StrCat("s", s, "_has_bias")) != 0) idx += 1;
  }
  const TensorDesc& wd = graph.node(node.inputs[idx]).out_desc;
  p.k = wd.shape[0];
  p.r = wd.shape[1];
  p.s = wd.shape[2];
  if (stage > 0) {
    // Chain spatial dims from the previous stage's output.
    ConvProblem prev = ConvProblemOf(graph, node, stage - 1);
    p.h = prev.out_h();
    p.w = prev.out_w();
    p.c = prev.k;
  }
  BOLT_CHECK_MSG(wd.shape[3] == p.c, "conv weight/input channel mismatch");
  return p;
}

GemmCoord GemmProblemOf(const Graph& graph, const Node& node, int stage) {
  const TensorDesc& xd = graph.node(node.inputs[0]).out_desc;
  int idx = 1;
  for (int s = 0; s < stage; ++s) {
    idx += 1;
    if (node.kind == OpKind::kBoltB2BGemm &&
        node.attrs.GetInt(StrCat("s", s, "_has_bias")) != 0) {
      idx += 1;
    }
  }
  const TensorDesc& wd = graph.node(node.inputs[idx]).out_desc;
  return GemmCoord(xd.shape[0], wd.shape[0], wd.shape[1]);
}

namespace {

bool IsActivationLayout(Layout l) {
  return l == Layout::kNCHW || l == Layout::kNHWC || l == Layout::kNCHWc;
}

/// A rank-4 activation with a 1x1 spatial map: NCHW, NHWC and NCHWc then
/// share one physical element order.
bool IsPointMap(const TensorDesc& d) {
  const bool nhwc = d.layout == Layout::kNHWC;
  return d.rank() == 4 && d.shape[nhwc ? 1 : 2] == 1 &&
         d.shape[nhwc ? 2 : 3] == 1;
}

/// The one layout rewrite behind LayoutTransformPass and LayoutSearchPass;
/// `target` is the policy naming the layout each node runs in.  A graph the
/// policy leaves as it is is copied; otherwise every op is emitted again
/// through a builder (shape inference follows the input layouts).
/// remap[id] holds each old node's value as emitted; realize() converts on
/// demand for consumers that want another layout, memoizing so one producer
/// is transformed at most once per target layout.
Graph RewriteLayouts(const Graph& graph,
                     const std::function<Layout(const Node&)>& target,
                     PassStats* stats) {
  bool any_change = false;
  for (const Node& n : graph.nodes()) {
    any_change |= n.out_desc.rank() == 4 &&
                  IsActivationLayout(n.out_desc.layout) &&
                  target(n) != n.out_desc.layout;
  }
  if (!any_change) {
    Rebuild rb(graph);
    for (const Node& n : graph.nodes()) rb.Copy(n);
    return rb.Finish();
  }

  // Every node is re-issued with its own descriptor (inputs included), so
  // the builder's default dtype and layout are never consulted.
  GraphBuilder b;
  std::vector<NodeId> remap(graph.num_nodes(), -1);
  std::vector<Layout> emitted(graph.num_nodes(), Layout::kAny);
  std::map<std::pair<NodeId, Layout>, NodeId> realized;

  auto realize = [&](NodeId old_id, Layout want) {
    const NodeId base = remap[old_id];
    const Node& p = graph.node(old_id);
    // Only rank-4 activations are re-laid-out; weights and rank-2 values
    // pass through untouched.
    if (p.out_desc.rank() != 4 || !IsActivationLayout(want) ||
        !IsActivationLayout(emitted[old_id]) || emitted[old_id] == want) {
      return base;
    }
    const auto key = std::make_pair(old_id, want);
    if (auto it = realized.find(key); it != realized.end()) {
      return it->second;
    }
    const NodeId t = b.LayoutTransform(
        base, want, StrCat(p.name, "_to_", LayoutName(want)));
    realized[key] = t;
    if (stats != nullptr) ++stats->layout_transforms_inserted;
    return t;
  };
  // Flatten and Softmax linearize the physical order, so they read their
  // input in the layout the original graph gave it -- except on a 1x1 map,
  // whose order is the same in every layout.
  auto as_original = [&](NodeId old_id) {
    const TensorDesc& d = graph.node(old_id).out_desc;
    return IsPointMap(d) ? remap[old_id] : realize(old_id, d.layout);
  };

  for (const Node& n : graph.nodes()) {
    const Layout want = target(n);
    switch (n.kind) {
      case OpKind::kInput:
        remap[n.id] = b.Input(n.name, n.out_desc);
        break;
      case OpKind::kConstant:
        remap[n.id] = graph.is_constant(n.id)
                          ? b.Constant(n.name, graph.constant(n.id))
                          : b.ConstantDesc(n.name, n.out_desc);
        break;
      case OpKind::kConv2d:
        remap[n.id] =
            b.Conv2d(realize(n.inputs[0], want), remap[n.inputs[1]],
                     Conv2dAttrs::FromNode(n), n.name);
        break;
      case OpKind::kDense:
        remap[n.id] =
            b.Dense(remap[n.inputs[0]], remap[n.inputs[1]], n.name);
        break;
      case OpKind::kBiasAdd:
        remap[n.id] =
            b.BiasAdd(realize(n.inputs[0], want), remap[n.inputs[1]],
                      n.name);
        break;
      case OpKind::kActivation: {
        auto k = ActivationFromName(n.attrs.GetStr("kind"));
        remap[n.id] = b.Activation(realize(n.inputs[0], want), k.value(),
                                   n.name);
        break;
      }
      case OpKind::kAdd:
        remap[n.id] = b.Add(realize(n.inputs[0], want),
                            realize(n.inputs[1], want), n.name);
        break;
      case OpKind::kMul:
        remap[n.id] = b.Mul(realize(n.inputs[0], want),
                            realize(n.inputs[1], want), n.name);
        break;
      case OpKind::kCast:
        remap[n.id] = b.Cast(realize(n.inputs[0], want), n.out_desc.dtype,
                             n.name);
        break;
      case OpKind::kMaxPool2d:
        remap[n.id] = b.MaxPool2d(realize(n.inputs[0], want),
                                  n.attrs.GetInt("kernel"),
                                  n.attrs.GetInt("stride"), n.name);
        break;
      case OpKind::kGlobalAvgPool:
        remap[n.id] = b.GlobalAvgPool(realize(n.inputs[0], want), n.name);
        break;
      case OpKind::kFlatten:
        remap[n.id] = b.Flatten(as_original(n.inputs[0]), n.name);
        break;
      case OpKind::kSoftmax:
        remap[n.id] = b.Softmax(as_original(n.inputs[0]), n.name);
        break;
      case OpKind::kLayoutTransform:
        remap[n.id] = b.LayoutTransform(
            realize(n.inputs[0], graph.node(n.inputs[0]).out_desc.layout),
            n.out_desc.layout, n.name);
        break;
      case OpKind::kBatchNorm:
        remap[n.id] = b.BatchNorm(realize(n.inputs[0], want),
                                  remap[n.inputs[1]], remap[n.inputs[2]],
                                  remap[n.inputs[3]], remap[n.inputs[4]],
                                  n.attrs.GetFloat("eps", 1e-5), n.name);
        break;
      case OpKind::kConcat: {
        std::vector<NodeId> parts;
        for (NodeId in : n.inputs) parts.push_back(realize(in, want));
        remap[n.id] = b.Concat(parts, n.name);
        break;
      }
      default:
        BOLT_CHECK_MSG(false, "layout passes must run before fusion; "
                              "unexpected op "
                                  << OpKindName(n.kind));
    }
    emitted[n.id] = b.graph().node(remap[n.id]).out_desc.layout;
  }
  for (NodeId out : graph.output_ids()) {
    // External contract: outputs leave in their original layout.
    b.MarkOutput(realize(out, graph.node(out).out_desc.layout));
  }
  auto built = b.Build();
  BOLT_CHECK_MSG(built.ok(), built.status().ToString());
  return std::move(built).value();
}

}  // namespace

Graph LayoutTransformPass(const Graph& graph, PassStats* stats) {
  return RewriteLayouts(
      graph, [](const Node&) { return Layout::kNHWC; }, stats);
}

Graph LayoutSearchPass(const Graph& graph, const DeviceSpec& spec,
                       PassStats* stats) {
  const PartitionResult parts = PartitionGraph(
      graph,
      [](const Graph& g, const Node& n) { return IsLayoutFlexible(g, n); });
  const LayoutPlan plan =
      AssignRegionLayouts(graph, parts, MakeCpuLayoutCostModel(spec));
  if (stats != nullptr) {
    stats->layout_transforms_elided += plan.elided_transforms;
  }
  return RewriteLayouts(
      graph,
      [&](const Node& n) {
        const int r = parts.region_of[n.id];
        return r >= 0 && plan.region_layout[r] != Layout::kAny
                   ? plan.region_layout[r]
                   : n.out_desc.layout;
      },
      stats);
}

Graph FoldBatchNormPass(const Graph& graph, PassStats* stats) {
  // Plan: BN nodes whose sole producer path is a single-consumer conv.
  std::vector<int> fold_at(graph.num_nodes(), -1);  // BN id -> conv id
  std::vector<bool> consumed_conv(graph.num_nodes(), false);
  for (const Node& n : graph.nodes()) {
    if (n.kind != OpKind::kBatchNorm) continue;
    const Node& producer = graph.node(n.inputs[0]);
    if (producer.kind != OpKind::kConv2d) continue;
    if (graph.NumConsumers(producer.id) != 1) continue;
    fold_at[n.id] = producer.id;
    consumed_conv[producer.id] = true;
  }

  Rebuild rb(graph);
  for (const Node& n : graph.nodes()) {
    if (consumed_conv[n.id]) continue;  // emitted at the BN's position
    if (n.kind == OpKind::kBatchNorm && fold_at[n.id] >= 0) {
      const Node& conv = graph.node(fold_at[n.id]);
      const Node& weight = graph.node(conv.inputs[1]);
      const int64_t oc = weight.out_desc.shape[0];

      // Scaled weight constant.
      Node new_w;
      new_w.kind = OpKind::kConstant;
      new_w.name = weight.name + ".bnfold";
      new_w.out_desc = weight.out_desc;
      const NodeId w_id = rb.Emit(std::move(new_w));
      // Bias constant.
      Node new_b;
      new_b.kind = OpKind::kConstant;
      new_b.name = weight.name + ".bnfold_bias";
      new_b.out_desc =
          TensorDesc(weight.out_desc.dtype, {oc}, Layout::kRowMajor);
      const NodeId b_id = rb.Emit(std::move(new_b));

      // Materialize folded parameters when everything is available.
      const NodeId g_id = conv.inputs[1];
      const bool have_data = graph.is_constant(g_id) &&
                             graph.is_constant(n.inputs[1]) &&
                             graph.is_constant(n.inputs[2]) &&
                             graph.is_constant(n.inputs[3]) &&
                             graph.is_constant(n.inputs[4]);
      if (have_data) {
        const Tensor& w = graph.constant(g_id);
        const Tensor& gamma = graph.constant(n.inputs[1]);
        const Tensor& beta = graph.constant(n.inputs[2]);
        const Tensor& mean = graph.constant(n.inputs[3]);
        const Tensor& var = graph.constant(n.inputs[4]);
        const float eps =
            static_cast<float>(n.attrs.GetFloat("eps", 1e-5));
        Tensor folded_w = w;
        Tensor folded_b(
            TensorDesc(weight.out_desc.dtype, {oc}, Layout::kRowMajor));
        const int64_t per_oc = folded_w.num_elements() / oc;
        for (int64_t o = 0; o < oc; ++o) {
          const float scale =
              gamma.at(o) / std::sqrt(var.at(o) + eps);
          for (int64_t i = 0; i < per_oc; ++i) {
            folded_w.at(o * per_oc + i) *= scale;
          }
          folded_b.at(o) = beta.at(o) - mean.at(o) * scale;
        }
        folded_w.Quantize();
        folded_b.Quantize();
        rb.graph().set_constant(w_id, std::move(folded_w));
        rb.graph().set_constant(b_id, std::move(folded_b));
      }

      Node new_conv = conv;
      new_conv.inputs = {rb.remap(conv.inputs[0]), w_id};
      const NodeId conv_id = rb.Emit(std::move(new_conv));

      Node bias;
      bias.kind = OpKind::kBiasAdd;
      bias.name = n.name + ".bnfold_biasadd";
      bias.inputs = {conv_id, b_id};
      bias.out_desc = n.out_desc;
      const NodeId out_id = rb.Emit(std::move(bias));
      rb.set_remap(n.id, out_id);
      if (stats != nullptr) ++stats->batchnorms_folded;
      continue;
    }
    rb.Copy(n);
  }
  return rb.Finish();
}

namespace {

struct ChainInfo {
  NodeId anchor = -1;
  std::vector<NodeId> folded;  // chain ops after the anchor, in order
  EpilogueSpec epilogue;
  NodeId bias = -1;
  NodeId residual = -1;
};

ChainInfo CollectEpilogueChain(const Graph& g, const Node& anchor,
                               bool fuse_chains,
                               const std::vector<bool>& claimed) {
  ChainInfo info;
  info.anchor = anchor.id;
  if (!fuse_chains) return info;
  NodeId cur = anchor.id;
  while (true) {
    const auto consumers = g.Consumers(cur);
    if (consumers.size() != 1) break;
    if (claimed[consumers[0]]) break;  // already folded into another chain
    const Node& c = g.node(consumers[0]);
    if (c.kind == OpKind::kBiasAdd && !info.epilogue.has_bias &&
        info.epilogue.activations.empty() && !info.epilogue.has_residual &&
        c.inputs[0] == cur) {
      info.bias = c.inputs[1];
      info.epilogue.has_bias = true;
    } else if (c.kind == OpKind::kActivation) {
      auto k = ActivationFromName(c.attrs.GetStr("kind"));
      if (!k.ok()) break;
      info.epilogue.activations.push_back(k.value());
    } else if (c.kind == OpKind::kAdd && !info.epilogue.has_residual &&
               info.epilogue.activations.empty()) {
      const NodeId other = c.inputs[0] == cur ? c.inputs[1] : c.inputs[0];
      if (other == cur) break;  // self-add: not a residual pattern
      info.residual = other;
      info.epilogue.has_residual = true;
      info.epilogue.beta = 1.0f;
    } else {
      break;
    }
    info.folded.push_back(c.id);
    cur = c.id;
  }
  return info;
}

}  // namespace

Graph EpilogueFusionPass(const Graph& graph, bool fuse_chains,
                         PassStats* stats) {
  // Phase 1: plan chains.
  std::vector<int> role(graph.num_nodes(), 0);  // 0 normal, 1 defer, 2 skip
  std::vector<ChainInfo> chains;
  std::vector<int> chain_at(graph.num_nodes(), -1);  // emission point
  std::vector<bool> claimed(graph.num_nodes(), false);
  for (const Node& n : graph.nodes()) {
    if (n.kind != OpKind::kConv2d && n.kind != OpKind::kDense) continue;
    if (n.kind == OpKind::kConv2d) {
      // Dilated convs stay primitive: the cutlite conv problem vocabulary
      // has no dilation, so they execute on the host CPU kernels instead.
      const Conv2dAttrs a = Conv2dAttrs::FromNode(n);
      if (a.dilation_h != 1 || a.dilation_w != 1) continue;
    }
    ChainInfo info = CollectEpilogueChain(graph, n, fuse_chains, claimed);
    for (NodeId f : info.folded) claimed[f] = true;
    const int ci = static_cast<int>(chains.size());
    if (info.folded.empty()) {
      chain_at[n.id] = ci;
    } else {
      role[n.id] = 1;  // deferred
      for (size_t i = 0; i + 1 < info.folded.size(); ++i) {
        role[info.folded[i]] = 2;  // interior
      }
      chain_at[info.folded.back()] = ci;
      role[info.folded.back()] = 1;
    }
    chains.push_back(std::move(info));
  }

  // Phase 2: emit.
  Rebuild rb(graph);
  for (const Node& n : graph.nodes()) {
    if (chain_at[n.id] >= 0) {
      const ChainInfo& info = chains[chain_at[n.id]];
      const Node& anchor = graph.node(info.anchor);
      Node composite;
      composite.kind = anchor.kind == OpKind::kConv2d ? OpKind::kBoltConv2d
                                                      : OpKind::kBoltGemm;
      composite.name = anchor.name + ".bolt";
      composite.out_desc = n.out_desc;  // desc of last folded op (or anchor)
      composite.inputs.push_back(rb.remap(anchor.inputs[0]));
      composite.inputs.push_back(rb.remap(anchor.inputs[1]));
      if (info.epilogue.has_bias) {
        composite.inputs.push_back(rb.remap(info.bias));
      }
      if (info.epilogue.has_residual) {
        composite.inputs.push_back(rb.remap(info.residual));
      }
      composite.attrs = anchor.attrs;  // conv stride/pad
      EpilogueToAttrs(info.epilogue, composite.attrs);
      const NodeId id = rb.Emit(std::move(composite));
      rb.set_remap(info.anchor, id);
      for (NodeId f : info.folded) rb.set_remap(f, id);
      if (stats != nullptr) {
        stats->epilogues_fused += static_cast<int>(info.folded.size());
      }
      continue;
    }
    if (role[n.id] != 0) continue;  // deferred anchor or interior op
    rb.Copy(n);
  }
  return rb.Finish();
}

Graph PersistentKernelFusionPass(const Graph& graph, Profiler& profiler,
                                 PassStats* stats) {
  // Phase 1: find fusable back-to-back chains of composites.
  std::vector<int> role(graph.num_nodes(), 0);
  struct Plan {
    std::vector<NodeId> members;  // composites, in order
    cutlite::ResidenceKind residence = cutlite::ResidenceKind::kRegisterFile;
  };
  std::vector<Plan> plans;
  std::vector<int> plan_at(graph.num_nodes(), -1);
  std::vector<bool> taken(graph.num_nodes(), false);

  for (const Node& n : graph.nodes()) {
    if (taken[n.id]) continue;
    if (n.kind != OpKind::kBoltGemm && n.kind != OpKind::kBoltConv2d) {
      continue;
    }
    if (n.attrs.GetInt("has_residual") != 0) continue;
    // Collect the maximal same-kind single-consumer chain.
    std::vector<NodeId> chain = {n.id};
    NodeId cur = n.id;
    while (true) {
      const auto consumers = graph.Consumers(cur);
      if (consumers.size() != 1) break;
      const Node& c = graph.node(consumers[0]);
      if (c.kind != n.kind || c.inputs[0] != cur) break;
      if (c.attrs.GetInt("has_residual") != 0) break;
      if (taken[c.id]) break;
      if (n.kind == OpKind::kBoltConv2d) {
        // Later persistent stages must be pointwise.
        Conv2dAttrs a;
        a.stride_h = c.attrs.GetInt("stride_h", 1);
        a.stride_w = c.attrs.GetInt("stride_w", 1);
        a.pad_h = c.attrs.GetInt("pad_h", 0);
        a.pad_w = c.attrs.GetInt("pad_w", 0);
        const TensorDesc& wd = graph.node(c.inputs[1]).out_desc;
        if (wd.shape[1] != 1 || wd.shape[2] != 1 || a.stride_h != 1 ||
            a.stride_w != 1 || a.pad_h != 0 || a.pad_w != 0) {
          break;
        }
      }
      chain.push_back(c.id);
      cur = c.id;
    }
    if (chain.size() < 2) continue;

    // Profile prefixes (2..4 stages) and keep the best beneficial one.
    size_t best_len = 0;
    double best_gain = 0.0;
    cutlite::ResidenceKind best_res = cutlite::ResidenceKind::kRegisterFile;
    for (size_t len = 2; len <= std::min<size_t>(chain.size(), 4); ++len) {
      B2bProfileResult r;
      if (n.kind == OpKind::kBoltGemm) {
        std::vector<GemmCoord> problems;
        std::vector<EpilogueSpec> epilogues;
        for (size_t i = 0; i < len; ++i) {
          const Node& m = graph.node(chain[i]);
          problems.push_back(GemmProblemOf(graph, m));
          epilogues.push_back(EpilogueFromAttrs(m.attrs));
        }
        r = profiler.ProfileB2bGemm(problems, epilogues);
      } else {
        std::vector<ConvProblem> problems;
        std::vector<EpilogueSpec> epilogues;
        for (size_t i = 0; i < len; ++i) {
          const Node& m = graph.node(chain[i]);
          problems.push_back(ConvProblemOf(graph, m));
          epilogues.push_back(EpilogueFromAttrs(m.attrs));
        }
        r = profiler.ProfileB2bConv(problems, epilogues);
      }
      if (r.beneficial && r.unfused_us - r.fused_us > best_gain) {
        best_gain = r.unfused_us - r.fused_us;
        best_len = len;
        best_res = r.residence;
      }
    }
    if (best_len < 2) continue;

    Plan plan;
    plan.members.assign(chain.begin(), chain.begin() + best_len);
    plan.residence = best_res;
    for (size_t i = 0; i + 1 < best_len; ++i) {
      role[chain[i]] = 2;  // interior
      taken[chain[i]] = true;
    }
    role[chain[best_len - 1]] = 1;
    taken[chain[best_len - 1]] = true;
    plan_at[chain[best_len - 1]] = static_cast<int>(plans.size());
    plans.push_back(std::move(plan));
  }

  // Phase 2: emit.
  Rebuild rb(graph);
  for (const Node& n : graph.nodes()) {
    if (plan_at[n.id] >= 0) {
      const Plan& plan = plans[plan_at[n.id]];
      const Node& first = graph.node(plan.members.front());
      Node fused;
      fused.kind = first.kind == OpKind::kBoltGemm ? OpKind::kBoltB2BGemm
                                                   : OpKind::kBoltB2BConv;
      fused.name = first.name + ".b2b";
      fused.out_desc = n.out_desc;
      fused.inputs.push_back(rb.remap(first.inputs[0]));
      fused.attrs.SetInt("stages",
                         static_cast<int64_t>(plan.members.size()));
      fused.attrs.SetStr("residence", cutlite::ResidenceName(plan.residence));
      for (size_t i = 0; i < plan.members.size(); ++i) {
        const Node& m = graph.node(plan.members[i]);
        const std::string prefix = StrCat("s", i, "_");
        fused.inputs.push_back(rb.remap(m.inputs[1]));  // weight
        const EpilogueSpec e = EpilogueFromAttrs(m.attrs);
        if (e.has_bias) fused.inputs.push_back(rb.remap(m.inputs[2]));
        EpilogueToAttrs(e, fused.attrs, prefix);
        if (first.kind == OpKind::kBoltConv2d) {
          fused.attrs.SetInt(prefix + "stride_h",
                             m.attrs.GetInt("stride_h", 1));
          fused.attrs.SetInt(prefix + "stride_w",
                             m.attrs.GetInt("stride_w", 1));
          fused.attrs.SetInt(prefix + "pad_h", m.attrs.GetInt("pad_h", 0));
          fused.attrs.SetInt(prefix + "pad_w", m.attrs.GetInt("pad_w", 0));
        }
      }
      const NodeId id = rb.Emit(std::move(fused));
      for (NodeId member : plan.members) rb.set_remap(member, id);
      if (stats != nullptr) {
        ++stats->persistent_fused;
        stats->persistent_stages += static_cast<int>(plan.members.size());
      }
      continue;
    }
    if (role[n.id] != 0) continue;
    rb.Copy(n);
  }
  return rb.Finish();
}

Graph PaddingPass(const Graph& graph, Profiler& profiler, PassStats* stats) {
  Rebuild rb(graph);
  for (const Node& n : graph.nodes()) {
    if (n.kind != OpKind::kBoltConv2d) {
      if (rb.remap(n.id) < 0) rb.Copy(n);
      continue;
    }
    const ConvProblem p = ConvProblemOf(graph, n);
    if (!cutlite::NeedsPadding(p.c)) {
      rb.Copy(n);
      continue;
    }
    const EpilogueSpec epilogue = EpilogueFromAttrs(n.attrs);
    ConvProblem padded = p;
    padded.c = cutlite::PadTo8(p.c);
    auto unpadded_r = profiler.ProfileConv(p, epilogue);
    auto padded_r = profiler.ProfileConv(padded, epilogue);
    if (!unpadded_r.ok() || !padded_r.ok()) {
      rb.Copy(n);
      continue;
    }
    const double pad_cost_us = cutlite::PaddingKernelUs(
        profiler.spec(), static_cast<double>(p.input_bytes()),
        static_cast<double>(padded.n * padded.h * padded.w * padded.c * 2));
    if (padded_r.value().us + pad_cost_us >= unpadded_r.value().us) {
      rb.Copy(n);  // padding not profitable
      continue;
    }

    // Pad the activation through an explicit kernel...
    const Node& x = graph.node(n.inputs[0]);
    Node pad;
    pad.kind = OpKind::kPadChannels;
    pad.name = n.name + ".pad_input";
    pad.inputs = {rb.remap(x.id)};
    pad.out_desc = graph.node(n.inputs[0]).out_desc;
    pad.out_desc.shape[3] = padded.c;
    const NodeId pad_id = rb.Emit(std::move(pad));

    // ...and the weight at compile time (free: folded into parameters).
    const Node& w = graph.node(n.inputs[1]);
    Node wpad;
    wpad.kind = OpKind::kConstant;
    wpad.name = w.name + ".padded";
    wpad.out_desc = w.out_desc;
    wpad.out_desc.shape[3] = padded.c;
    const NodeId wpad_id = rb.Emit(std::move(wpad));
    if (graph.is_constant(w.id)) {
      const Tensor& old_w = graph.constant(w.id);
      Tensor new_w(rb.graph().node(wpad_id).out_desc);
      const auto& os = old_w.shape();
      for (int64_t o = 0; o < os[0]; ++o)
        for (int64_t r = 0; r < os[1]; ++r)
          for (int64_t s = 0; s < os[2]; ++s)
            for (int64_t c = 0; c < os[3]; ++c)
              new_w.at(((o * os[1] + r) * os[2] + s) * padded.c + c) =
                  old_w.at(((o * os[1] + r) * os[2] + s) * os[3] + c);
      rb.graph().set_constant(wpad_id, std::move(new_w));
    }

    Node composite = n;
    composite.inputs = rb.Remapped(n.inputs);
    composite.inputs[0] = pad_id;
    composite.inputs[1] = wpad_id;
    composite.attrs.SetInt("padded_from_c", p.c);
    const NodeId id = rb.Emit(std::move(composite));
    rb.set_remap(n.id, id);
    if (stats != nullptr) ++stats->tensors_padded;
  }
  return rb.Finish();
}

}  // namespace bolt
