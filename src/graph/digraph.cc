#include "graph/digraph.h"

#include <algorithm>

#include "util/logging.h"

namespace extscc::graph {

Digraph::Digraph(std::vector<NodeId> nodes, const std::vector<Edge>& edges)
    : ids_(std::move(nodes)) {
  ids_.reserve(ids_.size() + 2 * edges.size());
  for (const Edge& e : edges) {
    ids_.push_back(e.src);
    ids_.push_back(e.dst);
  }
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  Build(edges);
}

Digraph::Digraph(const std::vector<Edge>& edges) : Digraph({}, edges) {}

void Digraph::Build(const std::vector<Edge>& edges) {
  const std::size_t n = ids_.size();
  fwd_offsets_.assign(n + 1, 0);
  rev_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    fwd_offsets_[index_of(e.src) + 1] += 1;
    rev_offsets_[index_of(e.dst) + 1] += 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    fwd_offsets_[i + 1] += fwd_offsets_[i];
    rev_offsets_[i + 1] += rev_offsets_[i];
  }
  fwd_targets_.resize(edges.size());
  rev_targets_.resize(edges.size());
  // Per-node write cursors, starting at each adjacency list's offset.
  std::vector<std::uint32_t> fwd_next(fwd_offsets_.begin(),
                                      fwd_offsets_.end() - 1);
  std::vector<std::uint32_t> rev_next(rev_offsets_.begin(),
                                      rev_offsets_.end() - 1);
  for (const Edge& e : edges) {
    const std::size_t s = index_of(e.src);
    const std::size_t d = index_of(e.dst);
    fwd_targets_[fwd_next[s]++] = static_cast<std::uint32_t>(d);
    rev_targets_[rev_next[d]++] = static_cast<std::uint32_t>(s);
  }
}

std::size_t Digraph::index_of(NodeId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return ids_.size();
  return static_cast<std::size_t>(it - ids_.begin());
}

std::span<const std::uint32_t> Digraph::out_neighbors(
    std::size_t index) const {
  DCHECK_LT(index, num_nodes());
  return {fwd_targets_.data() + fwd_offsets_[index],
          fwd_targets_.data() + fwd_offsets_[index + 1]};
}

std::span<const std::uint32_t> Digraph::in_neighbors(std::size_t index) const {
  DCHECK_LT(index, num_nodes());
  return {rev_targets_.data() + rev_offsets_[index],
          rev_targets_.data() + rev_offsets_[index + 1]};
}

bool BfsReachable(const Digraph& g, std::size_t from_index,
                  std::size_t to_index) {
  CHECK_LT(from_index, g.num_nodes());
  CHECK_LT(to_index, g.num_nodes());
  if (from_index == to_index) return true;
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<std::size_t> stack{from_index};
  seen[from_index] = true;
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    for (const std::uint32_t w : g.out_neighbors(v)) {
      if (w == to_index) return true;
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return false;
}

}  // namespace extscc::graph
