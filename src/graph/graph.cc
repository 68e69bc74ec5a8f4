#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/env.h"
#include "common/logging.h"
#include "graph/reorder.h"

namespace gal {

CompressionMode ResolveCompressionMode(CompressionMode requested) {
  const std::optional<env::Value> env =
      env::Lookup(env::Knob::kGraphCompression, "the build option");
  if (!env) return requested;
  return env->on ? CompressionMode::kDeltaVarint : CompressionMode::kNone;
}

Result<Graph> Graph::FromEdges(VertexId num_vertices, std::vector<Edge> edges,
                               const GraphOptions& options) {
  for (const Edge& e : edges) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      return Status::InvalidArgument(
          "edge endpoint out of range: " + std::to_string(e.src) + "->" +
          std::to_string(e.dst) + " with |V|=" + std::to_string(num_vertices));
    }
  }

  if (options.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }

  // Materialize both directions for undirected graphs.
  std::vector<Edge> directed_edges;
  directed_edges.reserve(options.directed ? edges.size() : edges.size() * 2);
  for (const Edge& e : edges) {
    directed_edges.push_back(e);
    if (!options.directed) directed_edges.push_back({e.dst, e.src});
  }

  std::sort(directed_edges.begin(), directed_edges.end());
  if (options.dedup) {
    directed_edges.erase(
        std::unique(directed_edges.begin(), directed_edges.end()),
        directed_edges.end());
  }

  Graph g;
  g.repeated_neighbors_ =
      !options.dedup &&
      std::adjacent_find(directed_edges.begin(), directed_edges.end()) !=
          directed_edges.end();
  if (options.reorder != ReorderMode::kNone && num_vertices > 0) {
    std::vector<uint32_t> degree(num_vertices, 0);
    for (const Edge& e : directed_edges) ++degree[e.src];
    std::vector<VertexId> to_internal = ComputeReorderPermutation(
        options.reorder, num_vertices, degree, directed_edges);
    for (Edge& e : directed_edges) {
      e.src = to_internal[e.src];
      e.dst = to_internal[e.dst];
    }
    std::sort(directed_edges.begin(), directed_edges.end());
    std::vector<VertexId> inv(num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v) inv[to_internal[v]] = v;
    g.reorder_mode_ = options.reorder;
    g.to_internal_ =
        std::make_shared<const std::vector<VertexId>>(std::move(to_internal));
    g.to_original_ =
        std::make_shared<const std::vector<VertexId>>(std::move(inv));
  }
  g.num_vertices_ = num_vertices;
  g.directed_ = options.directed;
  g.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  g.targets_.reserve(directed_edges.size());
  for (const Edge& e : directed_edges) {
    ++g.offsets_[e.src + 1];
    g.targets_.push_back(e.dst);
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.offsets_[v + 1] += g.offsets_[v];
  }
  g.num_edges_ = options.directed ? directed_edges.size()
                                  : directed_edges.size() / 2;
  if (ResolveCompressionMode(options.compression) ==
      CompressionMode::kDeltaVarint) {
    // Encode after reordering so hub-cluster layouts shrink the deltas,
    // then drop the raw array — the whole point is the footprint.
    g.compression_mode_ = CompressionMode::kDeltaVarint;
    g.compressed_ = std::make_shared<const CompressedCsr>(
        EncodeDeltaVarint(g.offsets_, g.targets_, options.dedup));
    g.targets_.clear();
    g.targets_.shrink_to_fit();
  }
  return g;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (compressed_ != nullptr) {
    // Stream the block with an early exit on the sorted order. For the
    // probe-heavy callers (ColorBound, FSM) this is O(d) instead of
    // O(log d), but those all sit behind intersect.h scratch paths now;
    // the remaining HasEdge uses are cold.
    for (NeighborCursor c = OutNeighbors(u); c.Valid(); c.Next()) {
      if (c.Get() >= v) return c.Get() == v;
    }
    return false;
  }
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::span<const VertexId> Graph::NeighborsInto(
    VertexId v, std::vector<VertexId>& scratch) const {
  if (compressed_ == nullptr) return Neighbors(v);
  const uint32_t degree = Degree(v);
  scratch.resize(degree);
  DecodeAdjacencyBlock(compressed_->bytes.data() + compressed_->row_offsets[v],
                       degree, compressed_->delta_bias, scratch.data());
  return {scratch.data(), degree};
}

uint32_t Graph::MaxDegree() const {
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    max_degree = std::max(max_degree, Degree(v));
  }
  return max_degree;
}

Status Graph::SetLabels(std::vector<Label> labels) {
  if (labels.size() != num_vertices_) {
    return Status::InvalidArgument(
        "labels.size()=" + std::to_string(labels.size()) +
        " != |V|=" + std::to_string(num_vertices_));
  }
  if (IsReordered()) {
    // Callers label vertices in their own (original) id space; store
    // under the internal layout so LabelOf(internal) is direct.
    std::vector<Label> internal(labels.size());
    for (VertexId v = 0; v < num_vertices_; ++v) {
      internal[v] = labels[OriginalId(v)];
    }
    labels = std::move(internal);
  }
  labels_ = std::move(labels);
  return Status::Ok();
}

Graph Graph::Reversed() const {
  std::vector<Edge> reversed;
  reversed.reserve(NumAdjacencyEntries());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    ForEachOutNeighbor(v, [&](VertexId u) { reversed.push_back({u, v}); });
  }
  GraphOptions options;
  options.directed = directed_;
  options.remove_self_loops = false;
  options.dedup = false;
  options.compression = compression_mode_;
  // For undirected graphs FromEdges would double the (already symmetric)
  // list, so dedup instead.
  if (!directed_) options.dedup = true;
  Result<Graph> g = FromEdges(num_vertices_, std::move(reversed), options);
  GAL_CHECK(g.ok()) << g.status();
  Graph out = std::move(g.value());
  out.labels_ = labels_;
  // The reversed view lives in the same internal id space (the edges
  // above were emitted with internal endpoints), so it shares the maps.
  out.reorder_mode_ = reorder_mode_;
  out.to_original_ = to_original_;
  out.to_internal_ = to_internal_;
  return out;
}

const Graph& Graph::ReversedView() const {
  if (!directed_) return *this;
  std::lock_guard<std::mutex> lock(views_->mu);
  if (!views_->reversed) {
    views_->reversed = std::make_shared<const Graph>(Reversed());
  }
  return *views_->reversed;
}

const Graph& Graph::UndirectedView() const {
  if (!directed_) return *this;
  std::lock_guard<std::mutex> lock(views_->mu);
  if (!views_->undirected) {
    GraphOptions options;  // directed=false symmetrizes and dedups
    options.compression = compression_mode_;
    Result<Graph> sym = FromEdges(num_vertices_, CollectEdges(), options);
    GAL_CHECK(sym.ok()) << sym.status();
    Graph out = std::move(sym.value());
    out.labels_ = labels_;
    // Same internal id space as this graph; share the reorder maps.
    out.reorder_mode_ = reorder_mode_;
    out.to_original_ = to_original_;
    out.to_internal_ = to_internal_;
    views_->undirected = std::make_shared<const Graph>(std::move(out));
  }
  return *views_->undirected;
}

Result<Graph> Graph::InducedSubgraph(std::span<const VertexId> vertices) const {
  // `vertices` are original ids (the repo-wide API convention). Before
  // the reorder fix this method read them as internal-layout ids and
  // indexed labels_ (internal-indexed) with them, so on a reordered
  // parent it silently returned the subgraph of the *wrong* vertex set;
  // it also dropped the permutation maps without saying so. The fresh-id
  // -space contract is now documented in graph.h and asserted below.
  std::unordered_map<VertexId, VertexId> index;  // original id -> result id
  index.reserve(vertices.size());
  for (size_t i = 0; i < vertices.size(); ++i) {
    VertexId v = vertices[i];
    if (v >= num_vertices_) {
      return Status::InvalidArgument("vertex out of range: " +
                                     std::to_string(v));
    }
    if (!index.emplace(v, static_cast<VertexId>(i)).second) {
      return Status::InvalidArgument("duplicate vertex: " + std::to_string(v));
    }
  }

  std::vector<Edge> edges;
  for (size_t i = 0; i < vertices.size(); ++i) {
    ForEachOutNeighbor(InternalId(vertices[i]), [&](VertexId u_internal) {
      auto it = index.find(OriginalId(u_internal));
      if (it == index.end()) return;
      if (directed_ || static_cast<VertexId>(i) < it->second) {
        edges.push_back({static_cast<VertexId>(i), it->second});
      }
    });
  }

  GraphOptions options;
  options.directed = directed_;
  options.compression = compression_mode_;
  Result<Graph> sub =
      FromEdges(static_cast<VertexId>(vertices.size()), std::move(edges),
                options);
  if (!sub.ok()) return sub.status();
  GAL_CHECK(!sub.value().IsReordered());
  if (IsLabeled()) {
    std::vector<Label> sub_labels(vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      sub_labels[i] = labels_[InternalId(vertices[i])];
    }
    GAL_CHECK_OK(sub.value().SetLabels(std::move(sub_labels)));
  }
  return sub;
}

std::vector<Edge> Graph::CollectEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    ForEachOutNeighbor(v, [&](VertexId u) {
      if (directed_ || v < u) edges.push_back({v, u});
    });
  }
  return edges;
}

size_t Graph::MemoryBytes() const {
  size_t bytes = offsets_.size() * sizeof(EdgeId) +
                 targets_.size() * sizeof(VertexId) +
                 labels_.size() * sizeof(Label);
  if (to_original_ != nullptr) bytes += to_original_->size() * sizeof(VertexId);
  if (to_internal_ != nullptr) bytes += to_internal_->size() * sizeof(VertexId);
  if (compressed_ != nullptr) bytes += compressed_->MemoryBytes();
  return bytes;
}

std::string Graph::ToString() const {
  std::ostringstream os;
  os << "Graph(|V|=" << num_vertices_ << ", |E|=" << num_edges_
     << ", directed=" << (directed_ ? "true" : "false")
     << ", labeled=" << (IsLabeled() ? "true" : "false");
  if (IsReordered()) {
    os << ", reorder="
       << (reorder_mode_ == ReorderMode::kDegreeDesc ? "degree-desc"
                                                     : "hub-cluster");
  }
  if (IsCompressed()) os << ", compression=delta-varint";
  os << ")";
  return os.str();
}

}  // namespace gal
