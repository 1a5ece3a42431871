#include "ir/graph.h"

#include <algorithm>

namespace bolt {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "input";
    case OpKind::kConstant:
      return "constant";
    case OpKind::kConv2d:
      return "conv2d";
    case OpKind::kDense:
      return "dense";
    case OpKind::kBiasAdd:
      return "bias_add";
    case OpKind::kActivation:
      return "activation";
    case OpKind::kAdd:
      return "add";
    case OpKind::kMul:
      return "mul";
    case OpKind::kCast:
      return "cast";
    case OpKind::kMaxPool2d:
      return "max_pool2d";
    case OpKind::kGlobalAvgPool:
      return "global_avg_pool";
    case OpKind::kFlatten:
      return "flatten";
    case OpKind::kSoftmax:
      return "softmax";
    case OpKind::kLayoutTransform:
      return "layout_transform";
    case OpKind::kPadChannels:
      return "pad_channels";
    case OpKind::kBatchNorm:
      return "batch_norm";
    case OpKind::kConcat:
      return "concat";
    case OpKind::kBoltGemm:
      return "bolt.gemm";
    case OpKind::kBoltConv2d:
      return "bolt.conv2d";
    case OpKind::kBoltB2BGemm:
      return "bolt.b2b_gemm";
    case OpKind::kBoltB2BConv:
      return "bolt.b2b_conv";
  }
  return "?";
}

int64_t AttrMap::GetInt(const std::string& key, int64_t def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  return std::get<int64_t>(it->second);
}

double AttrMap::GetFloat(const std::string& key, double def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  return std::get<double>(it->second);
}

std::string AttrMap::GetStr(const std::string& key,
                            const std::string& def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  return std::get<std::string>(it->second);
}

std::vector<int64_t> AttrMap::GetInts(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return {};
  return std::get<std::vector<int64_t>>(it->second);
}

NodeId Graph::AddNode(Node node) {
  node.id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

std::vector<NodeId> Graph::Consumers(NodeId id) const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (std::find(n.inputs.begin(), n.inputs.end(), id) != n.inputs.end()) {
      out.push_back(n.id);
    }
  }
  return out;
}

int Graph::NumConsumers(NodeId id) const {
  int count = 0;
  for (const Node& n : nodes_) {
    for (NodeId in : n.inputs) {
      if (in == id) {
        ++count;
        break;
      }
    }
  }
  return count;
}

Status Graph::Validate() const {
  for (const Node& n : nodes_) {
    if (n.id != &n - nodes_.data()) {
      return Status::Internal("node id mismatch at " + n.name);
    }
    for (NodeId in : n.inputs) {
      if (in < 0 || in >= num_nodes()) {
        return Status::Internal("dangling input id in node " + n.name);
      }
      if (in >= n.id) {
        return Status::Internal("graph not topologically ordered at node " +
                                n.name);
      }
    }
  }
  for (NodeId out : output_ids_) {
    if (out < 0 || out >= num_nodes()) {
      return Status::Internal("dangling output id");
    }
  }
  return Status::Ok();
}

std::string Graph::ToString() const {
  std::string out;
  for (const Node& n : nodes_) {
    out += StrCat("%", n.id, " = ", OpKindName(n.kind), "(");
    out += StrJoin(n.inputs, ", ");
    out += StrCat(") : ", n.out_desc.ToString(), "  # ", n.name, "\n");
  }
  out += StrCat("outputs: [", StrJoin(output_ids_, ", "), "]\n");
  return out;
}

Conv2dAttrs Conv2dAttrs::FromNode(const Node& n) {
  Conv2dAttrs a;
  a.stride_h = n.attrs.GetInt("stride_h", 1);
  a.stride_w = n.attrs.GetInt("stride_w", 1);
  a.pad_h = n.attrs.GetInt("pad_h", 0);
  a.pad_w = n.attrs.GetInt("pad_w", 0);
  a.dilation_h = n.attrs.GetInt("dilation_h", 1);
  a.dilation_w = n.attrs.GetInt("dilation_w", 1);
  return a;
}

void Conv2dAttrs::ToAttrs(AttrMap& attrs) const {
  attrs.SetInt("stride_h", stride_h);
  attrs.SetInt("stride_w", stride_w);
  attrs.SetInt("pad_h", pad_h);
  attrs.SetInt("pad_w", pad_w);
  // Dilation defaults keep printed graphs stable for the common case.
  if (dilation_h != 1) attrs.SetInt("dilation_h", dilation_h);
  if (dilation_w != 1) attrs.SetInt("dilation_w", dilation_w);
}

NodeId GraphBuilder::AddOp(OpKind kind, std::vector<NodeId> inputs,
                           TensorDesc out, AttrMap attrs,
                           const std::string& name) {
  Node n;
  n.kind = kind;
  n.inputs = std::move(inputs);
  n.out_desc = std::move(out);
  n.attrs = std::move(attrs);
  n.name = name.empty() ? AutoName(kind) : name;
  return graph_.AddNode(std::move(n));
}

std::string GraphBuilder::AutoName(OpKind kind) {
  return StrCat(OpKindName(kind), "_", name_counter_++);
}

NodeId GraphBuilder::Input(const std::string& name,
                           std::vector<int64_t> shape, Layout layout) {
  return Input(name, TensorDesc(dtype_, std::move(shape), layout));
}

NodeId GraphBuilder::Input(const std::string& name, TensorDesc desc) {
  NodeId id = AddOp(OpKind::kInput, {}, std::move(desc), {}, name);
  graph_.AddInput(id);
  return id;
}

NodeId GraphBuilder::Input(const std::string& name,
                           std::vector<int64_t> shape) {
  Layout layout = shape.size() == 4 ? act_layout_ : Layout::kRowMajor;
  return Input(name, std::move(shape), layout);
}

NodeId GraphBuilder::Constant(const std::string& name, Tensor value) {
  TensorDesc desc = value.desc();
  NodeId id = AddOp(OpKind::kConstant, {}, desc, {}, name);
  graph_.set_constant(id, std::move(value));
  return id;
}

NodeId GraphBuilder::ConstantDesc(const std::string& name, TensorDesc desc) {
  return AddOp(OpKind::kConstant, {}, std::move(desc), {}, name);
}

NodeId GraphBuilder::Conv2d(NodeId x, NodeId weight, const Conv2dAttrs& a,
                            const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  const TensorDesc& wd = graph_.node(weight).out_desc;
  BOLT_CHECK_MSG(xd.rank() == 4, "conv2d input must be rank 4");
  BOLT_CHECK_MSG(wd.rank() == 4, "conv2d weight must be rank 4 [O,kh,kw,I]");
  const bool nhwc = xd.layout == Layout::kNHWC;
  const int64_t n = xd.shape[0];
  const int64_t c = nhwc ? xd.shape[3] : xd.shape[1];
  const int64_t h = nhwc ? xd.shape[1] : xd.shape[2];
  const int64_t w = nhwc ? xd.shape[2] : xd.shape[3];
  const int64_t oc = wd.shape[0], kh = wd.shape[1], kw = wd.shape[2];
  BOLT_CHECK_MSG(wd.shape[3] == c, "conv2d channel mismatch: weight IC "
                                       << wd.shape[3] << " vs input C " << c);
  if (xd.layout == Layout::kNCHWc) {
    BOLT_CHECK_MSG(c % kNCHWcBlock == 0 && oc % kNCHWcBlock == 0,
                   "NCHWc conv2d requires C and OC divisible by "
                       << kNCHWcBlock << ", got C=" << c << " OC=" << oc);
  }
  const int64_t ekh = (kh - 1) * a.dilation_h + 1;
  const int64_t ekw = (kw - 1) * a.dilation_w + 1;
  const int64_t oh = (h + 2 * a.pad_h - ekh) / a.stride_h + 1;
  const int64_t ow = (w + 2 * a.pad_w - ekw) / a.stride_w + 1;
  std::vector<int64_t> oshape =
      nhwc ? std::vector<int64_t>{n, oh, ow, oc}
           : std::vector<int64_t>{n, oc, oh, ow};
  AttrMap attrs;
  a.ToAttrs(attrs);
  return AddOp(OpKind::kConv2d, {x, weight},
               TensorDesc(xd.dtype, std::move(oshape), xd.layout),
               std::move(attrs), name);
}

NodeId GraphBuilder::Dense(NodeId x, NodeId weight, const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  const TensorDesc& wd = graph_.node(weight).out_desc;
  BOLT_CHECK_MSG(xd.rank() == 2 && wd.rank() == 2, "dense wants rank-2");
  BOLT_CHECK_MSG(xd.shape[1] == wd.shape[1],
                 "dense K mismatch: " << xd.shape[1] << " vs " << wd.shape[1]);
  TensorDesc out(xd.dtype, {xd.shape[0], wd.shape[0]}, Layout::kRowMajor);
  return AddOp(OpKind::kDense, {x, weight}, out, {}, name);
}

NodeId GraphBuilder::BiasAdd(NodeId x, NodeId bias, const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  return AddOp(OpKind::kBiasAdd, {x, bias}, xd, {}, name);
}

NodeId GraphBuilder::Activation(NodeId x, ActivationKind kind,
                                const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  AttrMap attrs;
  attrs.SetStr("kind", ActivationName(kind));
  return AddOp(OpKind::kActivation, {x}, xd, std::move(attrs), name);
}

NodeId GraphBuilder::Add(NodeId a, NodeId b, const std::string& name) {
  const TensorDesc& ad = graph_.node(a).out_desc;
  return AddOp(OpKind::kAdd, {a, b}, ad, {}, name);
}

NodeId GraphBuilder::Mul(NodeId a, NodeId b, const std::string& name) {
  const TensorDesc& ad = graph_.node(a).out_desc;
  return AddOp(OpKind::kMul, {a, b}, ad, {}, name);
}

NodeId GraphBuilder::Cast(NodeId x, DType dtype, const std::string& name) {
  TensorDesc out = graph_.node(x).out_desc;
  out.dtype = dtype;
  return AddOp(OpKind::kCast, {x}, out, {}, name);
}

NodeId GraphBuilder::BatchNorm(NodeId x, NodeId gamma, NodeId beta,
                               NodeId mean, NodeId var, double eps,
                               const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  const bool nhwc = xd.layout == Layout::kNHWC;
  const int64_t c = xd.rank() == 4 ? (nhwc ? xd.shape[3] : xd.shape[1])
                                   : xd.shape.back();
  for (NodeId p : {gamma, beta, mean, var}) {
    BOLT_CHECK_MSG(graph_.node(p).out_desc.num_elements() == c,
                   "batch_norm parameter size mismatch");
  }
  AttrMap attrs;
  attrs.SetFloat("eps", eps);
  return AddOp(OpKind::kBatchNorm, {x, gamma, beta, mean, var}, xd,
               std::move(attrs), name);
}

NodeId GraphBuilder::Concat(const std::vector<NodeId>& parts,
                            const std::string& name) {
  BOLT_CHECK_MSG(parts.size() >= 2, "concat wants >= 2 operands");
  const TensorDesc& first = graph_.node(parts[0]).out_desc;
  BOLT_CHECK_MSG(first.rank() == 4, "concat implemented for rank-4");
  const bool nhwc = first.layout == Layout::kNHWC;
  int64_t channels = 0;
  for (NodeId p : parts) {
    const TensorDesc& d = graph_.node(p).out_desc;
    BOLT_CHECK_MSG(d.layout == first.layout, "concat layout mismatch");
    for (int i = 0; i < 4; ++i) {
      const int channel_axis = nhwc ? 3 : 1;
      if (i == channel_axis) continue;
      BOLT_CHECK_MSG(d.shape[i] == first.shape[i],
                     "concat non-channel dims must match");
    }
    channels += nhwc ? d.shape[3] : d.shape[1];
  }
  std::vector<int64_t> oshape = first.shape;
  oshape[nhwc ? 3 : 1] = channels;
  return AddOp(OpKind::kConcat, parts,
               TensorDesc(first.dtype, std::move(oshape), first.layout),
               {}, name);
}

NodeId GraphBuilder::MaxPool2d(NodeId x, int64_t kernel, int64_t stride,
                               const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  BOLT_CHECK(xd.rank() == 4);
  const bool nhwc = xd.layout == Layout::kNHWC;
  const int64_t h = nhwc ? xd.shape[1] : xd.shape[2];
  const int64_t w = nhwc ? xd.shape[2] : xd.shape[3];
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  std::vector<int64_t> oshape = xd.shape;
  if (nhwc) {
    oshape[1] = oh;
    oshape[2] = ow;
  } else {
    oshape[2] = oh;
    oshape[3] = ow;
  }
  AttrMap attrs;
  attrs.SetInt("kernel", kernel);
  attrs.SetInt("stride", stride);
  return AddOp(OpKind::kMaxPool2d, {x},
               TensorDesc(xd.dtype, std::move(oshape), xd.layout),
               std::move(attrs), name);
}

NodeId GraphBuilder::GlobalAvgPool(NodeId x, const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  BOLT_CHECK(xd.rank() == 4);
  const bool nhwc = xd.layout == Layout::kNHWC;
  const int64_t n = xd.shape[0];
  const int64_t c = nhwc ? xd.shape[3] : xd.shape[1];
  std::vector<int64_t> oshape =
      nhwc ? std::vector<int64_t>{n, 1, 1, c}
           : std::vector<int64_t>{n, c, 1, 1};
  return AddOp(OpKind::kGlobalAvgPool, {x},
               TensorDesc(xd.dtype, std::move(oshape), xd.layout), {}, name);
}

NodeId GraphBuilder::Flatten(NodeId x, const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  int64_t rest = 1;
  for (int i = 1; i < xd.rank(); ++i) rest *= xd.shape[i];
  TensorDesc out(xd.dtype, {xd.shape[0], rest}, Layout::kRowMajor);
  return AddOp(OpKind::kFlatten, {x}, out, {}, name);
}

NodeId GraphBuilder::Softmax(NodeId x, const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  return AddOp(OpKind::kSoftmax, {x}, xd, {}, name);
}

NodeId GraphBuilder::LayoutTransform(NodeId x, Layout to,
                                     const std::string& name) {
  const TensorDesc& xd = graph_.node(x).out_desc;
  BOLT_CHECK(xd.rank() == 4);
  const std::vector<int64_t>& s = xd.shape;
  // Recover logical {N, C, H, W}; kNCHWc keeps the logical NCHW shape.
  const bool from_nhwc = xd.layout == Layout::kNHWC;
  const int64_t n = s[0];
  const int64_t c = from_nhwc ? s[3] : s[1];
  const int64_t h = from_nhwc ? s[1] : s[2];
  const int64_t w = from_nhwc ? s[2] : s[3];
  if (xd.layout == Layout::kNCHWc || to == Layout::kNCHWc) {
    BOLT_CHECK_MSG(c % kNCHWcBlock == 0,
                   "NCHWc layout_transform requires C divisible by "
                       << kNCHWcBlock << ", got C=" << c);
  }
  std::vector<int64_t> oshape = to == Layout::kNHWC
                                    ? std::vector<int64_t>{n, h, w, c}
                                    : std::vector<int64_t>{n, c, h, w};
  AttrMap attrs;
  attrs.SetStr("to", LayoutName(to));
  return AddOp(OpKind::kLayoutTransform, {x},
               TensorDesc(xd.dtype, std::move(oshape), to), std::move(attrs),
               name);
}

Result<Graph> GraphBuilder::Build() {
  graph_.set_outputs(outputs_);
  Status st = graph_.Validate();
  if (!st.ok()) return st;
  return std::move(graph_);
}

}  // namespace bolt
