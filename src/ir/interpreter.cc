#include "ir/interpreter.h"

#include <algorithm>
#include <cmath>

#include "cpukernels/gemm.h"

namespace bolt {
namespace refop {

namespace {
// Read a spatial input element honouring layout, returning 0 for padding.
inline float ActAt(const Tensor& x, int64_t n, int64_t c, int64_t h,
                   int64_t w) {
  const auto& s = x.shape();
  if (x.layout() == Layout::kNHWC) {
    if (h < 0 || h >= s[1] || w < 0 || w >= s[2]) return 0.0f;
    return x.at(IndexNHWC(s, n, h, w, c));
  }
  if (h < 0 || h >= s[2] || w < 0 || w >= s[3]) return 0.0f;
  if (x.layout() == Layout::kNCHWc) return x.at(IndexNCHWc(s, n, c, h, w));
  return x.at(IndexNCHW(s, n, c, h, w));
}

// Index into a rank-4 activation by logical (n, c, h, w) for any of the
// three activation layouts.
inline int64_t ActIndex(Layout l, const std::vector<int64_t>& s, int64_t n,
                        int64_t c, int64_t h, int64_t w) {
  switch (l) {
    case Layout::kNHWC:
      return IndexNHWC(s, n, h, w, c);
    case Layout::kNCHWc:
      return IndexNCHWc(s, n, c, h, w);
    default:
      return IndexNCHW(s, n, c, h, w);
  }
}
}  // namespace

Tensor Conv2d(const Tensor& x, const Tensor& w, const Conv2dAttrs& a) {
  const bool nhwc = x.layout() == Layout::kNHWC;
  const auto& s = x.shape();
  const int64_t n = s[0];
  const int64_t c = nhwc ? s[3] : s[1];
  const int64_t h = nhwc ? s[1] : s[2];
  const int64_t wd = nhwc ? s[2] : s[3];
  const int64_t oc = w.shape()[0], kh = w.shape()[1], kw = w.shape()[2];
  BOLT_CHECK_MSG(w.shape()[3] == c, "conv2d ref channel mismatch");
  if (x.layout() == Layout::kNCHWc) {
    BOLT_CHECK_MSG(c % kNCHWcBlock == 0 && oc % kNCHWcBlock == 0,
                   "NCHWc conv requires channel counts divisible by "
                       << kNCHWcBlock);
  }
  const int64_t ekh = (kh - 1) * a.dilation_h + 1;
  const int64_t ekw = (kw - 1) * a.dilation_w + 1;
  const int64_t oh = (h + 2 * a.pad_h - ekh) / a.stride_h + 1;
  const int64_t ow = (wd + 2 * a.pad_w - ekw) / a.stride_w + 1;

  std::vector<int64_t> oshape = nhwc ? std::vector<int64_t>{n, oh, ow, oc}
                                     : std::vector<int64_t>{n, oc, oh, ow};
  Tensor out(TensorDesc(x.dtype(), oshape, x.layout()));
  for (int64_t in = 0; in < n; ++in) {
    for (int64_t io = 0; io < oc; ++io) {
      for (int64_t ih = 0; ih < oh; ++ih) {
        for (int64_t iw = 0; iw < ow; ++iw) {
          float acc = 0.0f;  // FP32 accumulate, as on tensor cores.
          for (int64_t r = 0; r < kh; ++r) {
            for (int64_t t = 0; t < kw; ++t) {
              const int64_t sh = ih * a.stride_h + r * a.dilation_h - a.pad_h;
              const int64_t sw = iw * a.stride_w + t * a.dilation_w - a.pad_w;
              for (int64_t ic = 0; ic < c; ++ic) {
                const float xv = ActAt(x, in, ic, sh, sw);
                const float wv =
                    w.at(((io * kh + r) * kw + t) * c + ic);
                acc += xv * wv;
              }
            }
          }
          out.at(ActIndex(x.layout(), oshape, in, io, ih, iw)) = acc;
        }
      }
    }
  }
  out.Quantize();
  return out;
}

Tensor Dense(const Tensor& x, const Tensor& w) {
  const int64_t m = x.shape()[0], k = x.shape()[1], n = w.shape()[0];
  BOLT_CHECK(w.shape()[1] == k);
  Tensor out(TensorDesc(x.dtype(), {m, n}, Layout::kRowMajor));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += x.at(i * k + kk) * w.at(j * k + kk);
      }
      out.at(i * n + j) = acc;
    }
  }
  out.Quantize();
  return out;
}

void BiasAddInPlace(Tensor& x, const Tensor& bias) {
  const int64_t c = bias.num_elements();
  if (x.desc().rank() == 4 && (x.layout() == Layout::kNCHW ||
                               x.layout() == Layout::kNCHWc)) {
    const auto& s = x.shape();
    BOLT_CHECK(s[1] == c);
    for (int64_t n = 0; n < s[0]; ++n)
      for (int64_t ci = 0; ci < s[1]; ++ci)
        for (int64_t h = 0; h < s[2]; ++h)
          for (int64_t w = 0; w < s[3]; ++w)
            x.at(ActIndex(x.layout(), s, n, ci, h, w)) += bias.at(ci);
  } else {
    // NHWC and row-major 2-D both have channels innermost.
    BOLT_CHECK(x.shape().back() == c);
    for (int64_t i = 0; i < x.num_elements(); ++i) {
      x.at(i) += bias.at(i % c);
    }
  }
  x.Quantize();
}

Tensor BiasAdd(const Tensor& x, const Tensor& bias) {
  Tensor out = x;
  BiasAddInPlace(out, bias);
  return out;
}

void ActivationInPlace(Tensor& x, ActivationKind kind) {
  for (float& v : x.data()) v = ApplyActivation(kind, v);
  x.Quantize();
}

Tensor Activation(const Tensor& x, ActivationKind kind) {
  Tensor out = x;
  ActivationInPlace(out, kind);
  return out;
}

void AddInPlace(Tensor& x, const Tensor& other) {
  BOLT_CHECK(x.num_elements() == other.num_elements());
  for (int64_t i = 0; i < x.num_elements(); ++i) x.at(i) += other.at(i);
  x.Quantize();
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  AddInPlace(out, b);
  return out;
}

void MulInPlace(Tensor& x, const Tensor& other) {
  BOLT_CHECK(x.num_elements() == other.num_elements());
  for (int64_t i = 0; i < x.num_elements(); ++i) x.at(i) *= other.at(i);
  x.Quantize();
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  MulInPlace(out, b);
  return out;
}

Tensor MaxPool2d(const Tensor& x, int64_t kernel, int64_t stride) {
  const bool nhwc = x.layout() == Layout::kNHWC;
  const auto& s = x.shape();
  const int64_t n = s[0];
  const int64_t c = nhwc ? s[3] : s[1];
  const int64_t h = nhwc ? s[1] : s[2];
  const int64_t w = nhwc ? s[2] : s[3];
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  std::vector<int64_t> oshape = nhwc ? std::vector<int64_t>{n, oh, ow, c}
                                     : std::vector<int64_t>{n, c, oh, ow};
  Tensor out(TensorDesc(x.dtype(), oshape, x.layout()));
  for (int64_t in = 0; in < n; ++in)
    for (int64_t ic = 0; ic < c; ++ic)
      for (int64_t ih = 0; ih < oh; ++ih)
        for (int64_t iw = 0; iw < ow; ++iw) {
          float best = -std::numeric_limits<float>::infinity();
          for (int64_t r = 0; r < kernel; ++r)
            for (int64_t t = 0; t < kernel; ++t)
              best = std::max(best, ActAt(x, in, ic, ih * stride + r,
                                          iw * stride + t));
          out.at(ActIndex(x.layout(), oshape, in, ic, ih, iw)) = best;
        }
  return out;
}

Tensor GlobalAvgPool(const Tensor& x) {
  const bool nhwc = x.layout() == Layout::kNHWC;
  const auto& s = x.shape();
  const int64_t n = s[0];
  const int64_t c = nhwc ? s[3] : s[1];
  const int64_t h = nhwc ? s[1] : s[2];
  const int64_t w = nhwc ? s[2] : s[3];
  std::vector<int64_t> oshape = nhwc ? std::vector<int64_t>{n, 1, 1, c}
                                     : std::vector<int64_t>{n, c, 1, 1};
  Tensor out(TensorDesc(x.dtype(), oshape, x.layout()));
  for (int64_t in = 0; in < n; ++in)
    for (int64_t ic = 0; ic < c; ++ic) {
      float sum = 0.0f;
      for (int64_t ih = 0; ih < h; ++ih)
        for (int64_t iw = 0; iw < w; ++iw) sum += ActAt(x, in, ic, ih, iw);
      out.at(in * c + ic) = sum / static_cast<float>(h * w);
    }
  out.Quantize();
  return out;
}

Tensor Flatten(const Tensor& x) {
  int64_t rest = 1;
  for (int i = 1; i < x.desc().rank(); ++i) rest *= x.shape()[i];
  return Tensor(TensorDesc(x.dtype(), {x.shape()[0], rest}, Layout::kRowMajor),
                x.data());
}

Tensor Softmax(const Tensor& x) {
  const int64_t m = x.shape()[0];
  const int64_t n = x.num_elements() / m;
  Tensor out = x;
  for (int64_t i = 0; i < m; ++i) {
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < n; ++j) mx = std::max(mx, x.at(i * n + j));
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      out.at(i * n + j) = std::exp(x.at(i * n + j) - mx);
      sum += out.at(i * n + j);
    }
    for (int64_t j = 0; j < n; ++j) out.at(i * n + j) /= sum;
  }
  out.Quantize();
  return out;
}

Tensor LayoutTransform(const Tensor& x, Layout to) {
  if (x.layout() == to) return x;
  const auto& s = x.shape();
  BOLT_CHECK(x.desc().rank() == 4);
  const Layout from = x.layout();
  const auto is_act = [](Layout l) {
    return l == Layout::kNCHW || l == Layout::kNHWC || l == Layout::kNCHWc;
  };
  BOLT_CHECK_MSG(is_act(from) && is_act(to), "unsupported layout transform");
  const int64_t n = s[0];
  const int64_t c = from == Layout::kNHWC ? s[3] : s[1];
  const int64_t h = from == Layout::kNHWC ? s[1] : s[2];
  const int64_t w = from == Layout::kNHWC ? s[2] : s[3];
  if (to == Layout::kNCHWc || from == Layout::kNCHWc) {
    BOLT_CHECK_MSG(c % kNCHWcBlock == 0,
                   "NCHWc transform requires C % " << kNCHWcBlock << " == 0");
  }
  std::vector<int64_t> oshape = to == Layout::kNHWC
                                    ? std::vector<int64_t>{n, h, w, c}
                                    : std::vector<int64_t>{n, c, h, w};
  // A pure permutation of elements: bit-exact in every direction.
  Tensor out(TensorDesc(x.dtype(), oshape, to));
  for (int64_t in = 0; in < n; ++in)
    for (int64_t ic = 0; ic < c; ++ic)
      for (int64_t ih = 0; ih < h; ++ih)
        for (int64_t iw = 0; iw < w; ++iw)
          out.at(ActIndex(to, oshape, in, ic, ih, iw)) =
              x.at(ActIndex(from, s, in, ic, ih, iw));
  return out;
}

Tensor PadChannels(const Tensor& x, int64_t padded) {
  if (x.desc().rank() == 4) {
    BOLT_CHECK_MSG(x.layout() == Layout::kNHWC,
                   "channel padding implemented for NHWC");
    const auto& s = x.shape();
    BOLT_CHECK(padded >= s[3]);
    std::vector<int64_t> oshape = {s[0], s[1], s[2], padded};
    Tensor out(TensorDesc(x.dtype(), oshape, Layout::kNHWC));
    for (int64_t n = 0; n < s[0]; ++n)
      for (int64_t h = 0; h < s[1]; ++h)
        for (int64_t w = 0; w < s[2]; ++w)
          for (int64_t c = 0; c < s[3]; ++c)
            out.at(IndexNHWC(oshape, n, h, w, c)) =
                x.at(IndexNHWC(s, n, h, w, c));
    return out;
  }
  BOLT_CHECK(x.desc().rank() == 2);
  const int64_t m = x.shape()[0], k = x.shape()[1];
  BOLT_CHECK(padded >= k);
  Tensor out(TensorDesc(x.dtype(), {m, padded}, Layout::kRowMajor));
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < k; ++j) out.at(i * padded + j) = x.at(i * k + j);
  return out;
}

Tensor BatchNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 const Tensor& mean, const Tensor& var, float eps) {
  const int64_t c = gamma.num_elements();
  Tensor out = x;
  const bool channels_innermost =
      x.desc().rank() != 4 || x.layout() == Layout::kNHWC;
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    int64_t ch;
    if (channels_innermost) {
      ch = i % c;
    } else if (x.layout() == Layout::kNCHWc) {
      const auto& s = x.shape();  // blocked: N C/8 H W 8
      ch = ((i / (s[2] * s[3] * kNCHWcBlock)) % (s[1] / kNCHWcBlock)) *
               kNCHWcBlock +
           i % kNCHWcBlock;
    } else {
      const auto& s = x.shape();  // NCHW
      ch = (i / (s[2] * s[3])) % s[1];
    }
    const float scale =
        gamma.at(ch) / std::sqrt(var.at(ch) + eps);
    out.at(i) = (x.at(i) - mean.at(ch)) * scale + beta.at(ch);
  }
  out.Quantize();
  return out;
}

Tensor Concat(const std::vector<const Tensor*>& parts) {
  BOLT_CHECK(parts.size() >= 2);
  const Tensor& first = *parts[0];
  BOLT_CHECK_MSG(first.desc().rank() == 4 &&
                     first.layout() == Layout::kNHWC,
                 "concat reference implemented for NHWC");
  const auto& s = first.shape();
  int64_t channels = 0;
  for (const Tensor* p : parts) channels += p->shape()[3];
  std::vector<int64_t> oshape = {s[0], s[1], s[2], channels};
  Tensor out(TensorDesc(first.dtype(), oshape, Layout::kNHWC));
  const int64_t pixels = s[0] * s[1] * s[2];
  for (int64_t px = 0; px < pixels; ++px) {
    int64_t offset = 0;
    for (const Tensor* p : parts) {
      const int64_t pc = p->shape()[3];
      for (int64_t ci = 0; ci < pc; ++ci) {
        out.at(px * channels + offset + ci) = p->at(px * pc + ci);
      }
      offset += pc;
    }
  }
  return out;
}

}  // namespace refop

Interpreter::Interpreter(const Graph& graph, InterpreterOptions options,
                         std::vector<KernelStep> steps)
    : graph_(graph), options_(options) {
  fast_ = options_.backend == cpukernels::Backend::kFastCpu;
  uses_.assign(graph_.num_nodes(), 0);
  is_output_.assign(graph_.num_nodes(), 0);
  fused_member_.assign(graph_.num_nodes(), 0);
  consts_.assign(graph_.num_nodes(), nullptr);
  for (const Node& n : graph_.nodes()) {
    for (NodeId in : n.inputs) ++uses_[in];
    if (n.kind == OpKind::kConstant && graph_.is_constant(n.id)) {
      consts_[n.id] = &graph_.constant(n.id);
    }
  }
  for (NodeId id : graph_.output_ids()) is_output_[id] = 1;
  if (fast_) BuildPlan();
  for (KernelStep& step : steps) steps_[step.result] = std::move(step);
}

void Interpreter::BuildPlan() {
  // Single-consumer successor of each node (or -1).
  std::vector<NodeId> succ(graph_.num_nodes(), -1);
  for (const Node& n : graph_.nodes()) {
    for (NodeId in : n.inputs) succ[in] = n.id;
  }
  // Nodes already owned by a committed chain.  Two chains can meet at one
  // residual Add (a diamond); the first chain folds the Add, the second
  // must stop before it or its tail would never be materialized.
  std::vector<char> claimed(graph_.num_nodes(), 0);

  for (const Node& n : graph_.nodes()) {
    if (n.kind != OpKind::kConv2d && n.kind != OpKind::kDense) continue;
    KernelStep step;
    step.activation = n.inputs[0];
    KernelStep::Stage& st = step.stages.emplace_back();
    st.weight = n.inputs[1];
    st.epilogue.boundary_quantize = true;
    if (n.kind == OpKind::kConv2d) {
      const Conv2dAttrs a = Conv2dAttrs::FromNode(n);
      st.kind = KernelStep::Kind::kConv;
      st.conv.stride_h = a.stride_h;
      st.conv.stride_w = a.stride_w;
      st.conv.pad_h = a.pad_h;
      st.conv.pad_w = a.pad_w;
      st.conv.dilation_h = a.dilation_h;
      st.conv.dilation_w = a.dilation_w;
    }
    // Output channels of the anchor (bias length must match for the
    // per-column epilogue broadcast to equal the reference BiasAdd).
    const int64_t oc = graph_.node(n.inputs[1]).out_desc.shape[0];
    const DType dt = n.out_desc.dtype;

    NodeId cur = n.id;
    enum class Stage { kBias, kAct } stage = Stage::kBias;
    while (options_.fuse_epilogues) {
      // Intermediates must feed exactly one op and not be graph outputs.
      if (uses_[cur] != 1 || is_output_[cur]) break;
      const Node& c = graph_.node(succ[cur]);
      if (claimed[c.id]) break;
      if (c.out_desc.dtype != dt) break;
      if (c.kind == OpKind::kBiasAdd && stage == Stage::kBias &&
          c.inputs[0] == cur &&
          graph_.node(c.inputs[1]).out_desc.num_elements() == oc) {
        st.bias = c.inputs[1];
        cur = c.id;
        stage = Stage::kAct;
        continue;
      }
      if (c.kind == OpKind::kActivation) {
        auto kind = ActivationFromName(c.attrs.GetStr("kind"));
        if (!kind.ok()) break;
        st.epilogue.acts.push_back(kind.value());
        cur = c.id;
        stage = Stage::kAct;
        continue;
      }
      if (c.kind == OpKind::kAdd) {
        const NodeId other = c.inputs[0] == cur ? c.inputs[1] : c.inputs[0];
        // Add(x, x) and mismatched operand descs stay unfused.
        if (other == cur ||
            !(graph_.node(c.inputs[0]).out_desc ==
              graph_.node(c.inputs[1]).out_desc)) {
          break;
        }
        step.residual = other;
        cur = c.id;
      }
      break;  // residual Add (or anything else) terminates the chain
    }
    step.result = cur;
    st.epilogue.output_dtype = graph_.node(cur).out_desc.dtype;
    for (NodeId id = n.id; id != cur; id = succ[id]) {
      fused_member_[id] = 1;
      claimed[id] = 1;
    }
    claimed[cur] = 1;
    steps_[cur] = std::move(step);
  }
}

// The block a launch runs with.  Fast backend: the tuned block for the
// shape (exact first, then the nearest tuned batch size for the same
// (n, k)) or the configured fallback.  Reference backend: the bit-exact
// scalar tier, whatever the registry or the options hold.
cpukernels::BlockConfig Interpreter::BlockFor(cpukernels::TunedKind kind,
                                              int64_t m, int64_t n, int64_t k,
                                              Layout layout) const {
  if (!fast_) {
    cpukernels::BlockConfig scalar;
    scalar.isa = cpukernels::CpuIsa::kScalar;
    return scalar;
  }
  if (!options_.use_tuned_blocks) return options_.block;
  return cpukernels::FindTunedBlockNearBatch(kind, m, n, k, options_.backend,
                                             layout)
      .value_or(options_.block);
}

ThreadPool* Interpreter::ResolvePool() const {
  if (!fast_) return nullptr;
  if (options_.pool != nullptr) return options_.pool;
  if (options_.parallel) return &cpukernels::ProcessPool();
  return nullptr;
}

Tensor Interpreter::RunStep(const KernelStep& step,
                            const std::vector<Tensor>& env) const {
  ThreadPool* pool = ResolvePool();
  const Tensor* x = &Operand(env, step.activation);
  Tensor out;
  for (size_t i = 0; i < step.stages.size(); ++i) {
    const KernelStep::Stage& st = step.stages[i];
    const Tensor& w = Operand(env, st.weight);
    cpukernels::Epilogue epi = st.epilogue;
    if (st.bias >= 0) epi.bias = Operand(env, st.bias).data().data();
    if (step.residual >= 0 && i + 1 == step.stages.size()) {
      epi.residual = Operand(env, step.residual).data().data();
    }
    if (st.kind == KernelStep::Kind::kConv) {
      const cpukernels::ConvGemmShape shape =
          cpukernels::ResolveConvGemmShape(*x, w, st.conv);
      out = cpukernels::Conv2d(*x, w, st.conv, epi,
                               BlockFor(cpukernels::TunedKind::kConv, shape.m,
                                        shape.n, shape.k, x->layout()),
                               pool);
    } else {
      out = cpukernels::Gemm(*x, w, epi,
                             BlockFor(cpukernels::TunedKind::kGemm,
                                      x->shape()[0], w.shape()[0],
                                      x->shape()[1], Layout::kRowMajor),
                             pool);
    }
    x = &out;  // the next stage reads this one's output in place
  }
  return out;
}

bool Interpreter::Stealable(NodeId src) const {
  return consts_[src] == nullptr && uses_[src] == 1 && !is_output_[src];
}

Tensor Interpreter::TakeOrCopy(std::vector<Tensor>& env, NodeId src) const {
  if (Stealable(src)) return std::move(env[src]);
  return Operand(env, src);
}

std::vector<Tensor> Interpreter::Outputs(
    const std::vector<Tensor>& env) const {
  std::vector<Tensor> outs;
  outs.reserve(graph_.output_ids().size());
  for (NodeId id : graph_.output_ids()) outs.push_back(Operand(env, id));
  return outs;
}

Result<std::vector<Tensor>> Interpreter::Run(
    const std::map<std::string, Tensor>& inputs) const {
  std::vector<Tensor> env(graph_.num_nodes());
  for (const Node& n : graph_.nodes()) {
    BOLT_RETURN_IF_ERROR(RunNode(n, inputs, env));
  }
  return Outputs(env);
}

Status Interpreter::RunNode(const Node& n,
                            const std::map<std::string, Tensor>& inputs,
                            std::vector<Tensor>& env) const {
  if (fused_member_[n.id]) return Status::Ok();  // run at the step result
  auto it = steps_.find(n.id);
  if (it != steps_.end()) {
    env[n.id] = RunStep(it->second, env);
    return Status::Ok();
  }
  auto in = [&](size_t i) -> const Tensor& {
    return Operand(env, n.inputs[i]);
  };
  switch (n.kind) {
    case OpKind::kInput: {
      auto it = inputs.find(n.name);
      if (it == inputs.end()) {
        return Status::InvalidArgument("missing input tensor: " + n.name);
      }
      // Kernels (and fused epilogue pointers) are sized, typed and indexed
      // from the declared descs, so a tensor of another shape or dtype, or
      // a rank-4 activation in another concrete layout, is refused here.
      // An unlabelled (kAny) tensor is taken in the declared layout.
      const TensorDesc& got = it->second.desc();
      const bool layout_clash = got.rank() == 4 &&
                                got.layout != Layout::kAny &&
                                got.layout != n.out_desc.layout;
      if (got.shape != n.out_desc.shape || got.dtype != n.out_desc.dtype ||
          layout_clash) {
        return Status::InvalidArgument(
            StrCat("input tensor ", n.name, " is ", got.ToString(),
                   ", graph declares ", n.out_desc.ToString()));
      }
      env[n.id] = Tensor(n.out_desc, it->second.data());
      env[n.id].Quantize();
      break;
    }
    case OpKind::kConstant:
      // Read in place through Operand; the env slot stays empty.
      if (consts_[n.id] == nullptr) {
        return Status::FailedPrecondition(
            "constant " + n.name +
            " has no materialized data (timing-only graph)");
      }
      break;
    case OpKind::kConv2d:
      env[n.id] = refop::Conv2d(in(0), in(1), Conv2dAttrs::FromNode(n));
      break;
    case OpKind::kDense:
      env[n.id] = refop::Dense(in(0), in(1));
      break;
    case OpKind::kBiasAdd: {
      if (fast_) {
        Tensor t = TakeOrCopy(env, n.inputs[0]);
        refop::BiasAddInPlace(t, in(1));
        env[n.id] = std::move(t);
      } else {
        env[n.id] = refop::BiasAdd(in(0), in(1));
      }
      break;
    }
    case OpKind::kActivation: {
      auto kind = ActivationFromName(n.attrs.GetStr("kind"));
      if (!kind.ok()) return kind.status();
      if (fast_) {
        Tensor t = TakeOrCopy(env, n.inputs[0]);
        refop::ActivationInPlace(t, kind.value());
        env[n.id] = std::move(t);
      } else {
        env[n.id] = refop::Activation(in(0), kind.value());
      }
      break;
    }
    case OpKind::kAdd:
    case OpKind::kMul: {
      const NodeId lhs = n.inputs[0], rhs = n.inputs[1];
      const bool mul = n.kind == OpKind::kMul;
      if (fast_ && Stealable(lhs) && lhs != rhs) {
        Tensor t = std::move(env[lhs]);
        mul ? refop::MulInPlace(t, in(1)) : refop::AddInPlace(t, in(1));
        env[n.id] = std::move(t);
      } else if (fast_ && Stealable(rhs) && lhs != rhs &&
                 graph_.node(lhs).out_desc == graph_.node(rhs).out_desc) {
        // Commutative: accumulate into the right operand's buffer.
        Tensor t = std::move(env[rhs]);
        mul ? refop::MulInPlace(t, in(0)) : refop::AddInPlace(t, in(0));
        env[n.id] = std::move(t);
      } else {
        env[n.id] = mul ? refop::Mul(in(0), in(1)) : refop::Add(in(0), in(1));
      }
      break;
    }
    case OpKind::kCast:
      env[n.id] = in(0).Cast(n.out_desc.dtype);
      break;
    case OpKind::kMaxPool2d:
      env[n.id] = refop::MaxPool2d(in(0), n.attrs.GetInt("kernel"),
                                   n.attrs.GetInt("stride"));
      break;
    case OpKind::kGlobalAvgPool:
      env[n.id] = refop::GlobalAvgPool(in(0));
      break;
    case OpKind::kFlatten:
      env[n.id] = refop::Flatten(in(0));
      break;
    case OpKind::kSoftmax:
      env[n.id] = refop::Softmax(in(0));
      break;
    case OpKind::kLayoutTransform: {
      Layout to = n.out_desc.layout;
      env[n.id] = refop::LayoutTransform(in(0), to);
      break;
    }
    case OpKind::kPadChannels:
      env[n.id] = refop::PadChannels(in(0), n.out_desc.shape.back());
      break;
    case OpKind::kBatchNorm:
      env[n.id] = refop::BatchNorm(
          in(0), in(1), in(2), in(3), in(4),
          static_cast<float>(n.attrs.GetFloat("eps", 1e-5)));
      break;
    case OpKind::kConcat: {
      std::vector<const Tensor*> parts;
      for (size_t i = 0; i < n.inputs.size(); ++i) parts.push_back(&in(i));
      env[n.id] = refop::Concat(parts);
      break;
    }
    default:
      return Status::Unsupported(
          StrCat("interpreter cannot execute composite op ",
                 OpKindName(n.kind), " (node ", n.name,
                 "); use the Bolt engine"));
  }
  return Status::Ok();
}

}  // namespace bolt
