#include "nn/gat.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/kernel_context.h"

namespace gal {
namespace {

float LeakyRelu(float x, float slope) { return x > 0 ? x : slope * x; }
float LeakyReluGrad(float x, float slope) { return x > 0 ? 1.0f : slope; }

float Dot(const float* a, const float* b, uint32_t d) {
  float s = 0;
  for (uint32_t i = 0; i < d; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

GatModel::GatModel(const Graph* graph, const GcnConfig& config)
    : graph_(graph) {
  GAL_CHECK(config.dims.size() >= 2);
  Rng rng(config.seed);
  for (size_t l = 0; l + 1 < config.dims.size(); ++l) {
    weights_.push_back(
        Matrix::Xavier(config.dims[l], config.dims[l + 1], rng));
    attn_src_.push_back(Matrix::Xavier(1, config.dims[l + 1], rng));
    attn_dst_.push_back(Matrix::Xavier(1, config.dims[l + 1], rng));
  }
}

std::vector<Matrix*> GatModel::Parameters() {
  std::vector<Matrix*> params;
  for (uint32_t l = 0; l < num_layers(); ++l) {
    params.push_back(&weights_[l]);
    params.push_back(&attn_src_[l]);
    params.push_back(&attn_dst_[l]);
  }
  return params;
}

Matrix GatModel::Forward(const Matrix& features) {
  const VertexId n = graph_->NumVertices();
  GAL_CHECK(features.rows() == n);
  inputs_.clear();
  z_.clear();
  alpha_.assign(num_layers(), {});
  e_raw_.assign(num_layers(), {});
  relu_masks_.clear();

  Matrix h = features;
  for (uint32_t l = 0; l < num_layers(); ++l) {
    inputs_.push_back(h);
    Matrix z = Matmul(h, weights_[l]);
    const uint32_t d = z.cols();
    const float* a_src = attn_src_[l].row(0);
    const float* a_dst = attn_dst_[l].row(0);

    KernelContext& ctx = KernelContext::Get();

    // Per-vertex source/destination attention scalars.
    std::vector<float> src_score(n);
    std::vector<float> dst_score(n);
    ctx.ParallelFor1D(n, 2 * uint64_t{d}, [&](size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        src_score[v] = Dot(z.row(static_cast<VertexId>(v)), a_src, d);
        dst_score[v] = Dot(z.row(static_cast<VertexId>(v)), a_dst, d);
      }
    });

    alpha_[l].assign(n, {});
    e_raw_[l].assign(n, {});
    Matrix out(n, d);
    // Each vertex writes only its own out/alpha/e_raw rows, so the
    // attention aggregation parallelizes without races.
    const uint64_t avg_fan =
        1 + graph_->NumAdjacencyEntries() / std::max<uint64_t>(1, n);
    ctx.ParallelFor1D(n, avg_fan * d, [&](size_t v_begin, size_t v_end) {
    // Shard-local adjacency decode buffer (compressed layouts).
    std::vector<VertexId> nbr_scratch;
    for (VertexId i = static_cast<VertexId>(v_begin);
         i < static_cast<VertexId>(v_end); ++i) {
      const auto nbrs = graph_->NeighborsInto(i, nbr_scratch);
      const size_t fan = nbrs.size() + 1;  // self first
      std::vector<float>& raw = e_raw_[l][i];
      std::vector<float>& att = alpha_[l][i];
      raw.resize(fan);
      att.resize(fan);
      raw[0] = src_score[i] + dst_score[i];
      for (size_t j = 0; j < nbrs.size(); ++j) {
        raw[j + 1] = src_score[i] + dst_score[nbrs[j]];
      }
      // Softmax over LeakyReLU(raw).
      float mx = -1e30f;
      for (size_t j = 0; j < fan; ++j) {
        att[j] = LeakyRelu(raw[j], leaky_slope_);
        mx = std::max(mx, att[j]);
      }
      float sum = 0;
      for (size_t j = 0; j < fan; ++j) {
        att[j] = std::exp(att[j] - mx);
        sum += att[j];
      }
      float* oi = out.row(i);
      for (size_t j = 0; j < fan; ++j) {
        att[j] /= sum;
        const float* zj = z.row(j == 0 ? i : nbrs[j - 1]);
        for (uint32_t c = 0; c < d; ++c) oi[c] += att[j] * zj[c];
      }
    }
    });
    z_.push_back(std::move(z));
    if (l + 1 < num_layers()) {
      Matrix mask;
      h = ReluForward(out, &mask);
      relu_masks_.push_back(std::move(mask));
    } else {
      h = std::move(out);
    }
  }
  return h;
}

void GatModel::EnsureInEdgeCache() {
  if (!in_edge_offsets_.empty()) return;
  const VertexId n = graph_->NumVertices();
  slot_offsets_.assign(n + 1, 0);
  std::vector<uint64_t> indeg(n, 0);
  for (VertexId i = 0; i < n; ++i) {
    slot_offsets_[i + 1] = slot_offsets_[i] + graph_->Degree(i) + 1;
    ++indeg[i];  // the self slot targets i
    graph_->ForEachOutNeighbor(i, [&](VertexId t) { ++indeg[t]; });
  }
  in_edge_offsets_.assign(n + 1, 0);
  for (VertexId t = 0; t < n; ++t) {
    in_edge_offsets_[t + 1] = in_edge_offsets_[t] + indeg[t];
  }
  const uint64_t total = in_edge_offsets_[n];
  in_edge_src_.resize(total);
  in_edge_slot_.resize(total);
  std::vector<uint64_t> cursor(in_edge_offsets_.begin(),
                               in_edge_offsets_.end() - 1);
  // Ascending source order keeps every destination's in-edge list sorted
  // by (source, slot), fixing the gather's accumulation order for any
  // thread count.
  for (VertexId i = 0; i < n; ++i) {
    in_edge_src_[cursor[i]] = i;
    in_edge_slot_[cursor[i]] = 0;
    ++cursor[i];
    uint32_t j = 0;
    graph_->ForEachOutNeighbor(i, [&](VertexId t) {
      in_edge_src_[cursor[t]] = i;
      in_edge_slot_[cursor[t]] = j + 1;
      ++j;
      ++cursor[t];
    });
  }
}

std::vector<Matrix> GatModel::Backward(const Matrix& grad_logits) {
  GAL_CHECK(inputs_.size() == num_layers()) << "Forward must run first";
  const VertexId n = graph_->NumVertices();
  std::vector<Matrix> grads(3 * num_layers());
  EnsureInEdgeCache();

  KernelContext& ctx = KernelContext::Get();
  const uint64_t avg_fan =
      1 + graph_->NumAdjacencyEntries() / std::max<uint64_t>(1, n);
  // Per-slot softmax-backward coefficients de_ij of the current layer,
  // in the flattened per-source layout; phase 2 reads them transposed.
  std::vector<float> de(slot_offsets_[n]);
  std::vector<float> rowsum_de(n);   // Σ_j de_ij, per source
  std::vector<float> insum_de(n);    // Σ in-edges de, per destination

  Matrix ds = grad_logits;  // dL/d(pre-activation aggregate) of layer l
  for (uint32_t l = num_layers(); l-- > 0;) {
    const Matrix& z = z_[l];
    const uint32_t d = z.cols();
    const float* a_src = attn_src_[l].row(0);
    const float* a_dst = attn_dst_[l].row(0);

    Matrix dz(n, d);
    Matrix da_src(1, d);
    Matrix da_dst(1, d);

    // The attention-path gradient scatters into dz rows of neighboring
    // vertices, which would race under vertex sharding — so it runs as a
    // two-phase gather instead. Phase 1 (parallel over sources) computes
    // the per-slot coefficients de_ij = LeakyReLU'(raw) α (dα − Σ α dα)
    // and the source-local a_src path dz_i += (Σ_j de_ij) a_src; each
    // shard writes only its own rows.
    ctx.ParallelFor1D(n, (2 * avg_fan + 2) * d, [&](size_t v_begin,
                                                    size_t v_end) {
      std::vector<float> dalpha;
      std::vector<VertexId> nbr_scratch;
      for (VertexId i = static_cast<VertexId>(v_begin);
           i < static_cast<VertexId>(v_end); ++i) {
        const auto nbrs = graph_->NeighborsInto(i, nbr_scratch);
        const size_t fan = nbrs.size() + 1;
        const std::vector<float>& att = alpha_[l][i];
        const std::vector<float>& raw = e_raw_[l][i];
        const float* dsi = ds.row(i);

        // dα_ij = ds_i · z_j; softmax backward: de = α (dα − Σ α dα).
        dalpha.resize(fan);
        float weighted = 0;
        for (size_t j = 0; j < fan; ++j) {
          dalpha[j] = Dot(dsi, z.row(j == 0 ? i : nbrs[j - 1]), d);
          weighted += att[j] * dalpha[j];
        }
        float* de_row = de.data() + slot_offsets_[i];
        float rs = 0;
        for (size_t j = 0; j < fan; ++j) {
          float v = att[j] * (dalpha[j] - weighted);
          v *= LeakyReluGrad(raw[j], leaky_slope_);
          de_row[j] = v;
          rs += v;
        }
        rowsum_de[i] = rs;
        float* dzi = dz.row(i);
        for (uint32_t c = 0; c < d; ++c) dzi[c] += rs * a_src[c];
      }
    });

    // Phase 2 (parallel over destinations): gather the value path
    // dz_t += α_ij ds_i and the a_dst path dz_t += de_ij a_dst over t's
    // in-edge list. One shard owns each dz row and walks the list in its
    // fixed (source, slot) order, so results are bit-identical at every
    // thread count.
    ctx.ParallelFor1D(n, (2 * avg_fan + 2) * d, [&](size_t v_begin,
                                                    size_t v_end) {
      for (VertexId t = static_cast<VertexId>(v_begin);
           t < static_cast<VertexId>(v_end); ++t) {
        float* dzt = dz.row(t);
        float st = 0;
        for (uint64_t e = in_edge_offsets_[t]; e < in_edge_offsets_[t + 1];
             ++e) {
          const VertexId i = in_edge_src_[e];
          const uint32_t j = in_edge_slot_[e];
          const float a = alpha_[l][i][j];
          const float dev = de[slot_offsets_[i] + j];
          const float* dsi = ds.row(i);
          for (uint32_t c = 0; c < d; ++c) {
            dzt[c] += a * dsi[c] + dev * a_dst[c];
          }
          st += dev;
        }
        insum_de[t] = st;
      }
    });

    // Attention-vector gradients collapse to rank-1 reductions over the
    // per-vertex de sums: da_src = Σ_i (Σ_j de_ij) z_i and
    // da_dst = Σ_t (Σ_in de) z_t. O(n·d), serial, fixed order.
    float* das = da_src.row(0);
    float* dad = da_dst.row(0);
    for (VertexId v = 0; v < n; ++v) {
      const float* zv = z.row(v);
      const float rs = rowsum_de[v];
      const float is = insum_de[v];
      for (uint32_t c = 0; c < d; ++c) {
        das[c] += rs * zv[c];
        dad[c] += is * zv[c];
      }
    }

    grads[3 * l] = MatmulTransposeA(inputs_[l], dz);  // dW
    grads[3 * l + 1] = std::move(da_src);
    grads[3 * l + 2] = std::move(da_dst);
    if (l == 0) break;
    Matrix dh = MatmulTransposeB(dz, weights_[l]);
    ds = ReluBackward(dh, relu_masks_[l - 1]);
  }
  return grads;
}

TrainReport TrainGatClassifier(GatModel& model, const Matrix& features,
                               const std::vector<int32_t>& labels,
                               const std::vector<uint8_t>& train_mask,
                               const std::vector<uint8_t>& test_mask,
                               const TrainConfig& config) {
  return TrainClassifier(
      {model.Parameters(), [&] { return model.Forward(features); },
       [&](const Matrix& g) { return model.Backward(g); }},
      labels, train_mask, test_mask, config);
}

}  // namespace gal
