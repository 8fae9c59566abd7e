// Cotree binarization (paper Fig 3) and the leftist transform — host
// reference implementations. (The PRAM versions that the measured pipeline
// uses live in core/pipeline; these are the independently-testable oracles.)
//
// Binarization replaces each internal node u with children v1..vk by a
// left-deep comb u1..u_{k-1}: u1 = (v1, v2), u_i = (u_{i-1}, v_{i+1}). The
// result always has exactly L leaves and L-1 internal nodes regardless of
// the original arity. Property (5) (label alternation) is lost — comb nodes
// share u's label — but (4) and (6) survive, which is all the algorithm
// needs.
//
// The leftist transform swaps children so that L(left) >= L(right) at every
// internal node (L = descendant leaf count), the precondition for the
// bridge/insert analysis of §2.
//
// Two storage shapes share one implementation:
//  * BinarizedCotree — std::vector-backed, the long-lived product form the
//    pipeline / count / oracle call sites keep.
//  * ScratchBinarized — the same arrays carved from an exec::Arena, for
//    the request front-end where the binarized tree is per-request scratch
//    that must not touch the heap on warm requests.
// BinView is the common read surface the sweeps consume (core/sequential,
// core/count); both shapes produce identical node layouts, so results are
// bitwise-equal whichever storage backed them. The internal worklists of
// both variants draw from the calling thread's arena.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cograph/cotree.hpp"
#include "exec/scratch.hpp"
#include "par/bintree.hpp"

namespace copath::cograph {

struct BinarizedCotree {
  par::BinTree tree;
  /// Per binarized node: 1 iff it carries the Join (1-node) label. Leaves
  /// hold 0.
  std::vector<std::uint8_t> is_join;
  /// Per binarized node: the cograph vertex for leaves, kNull otherwise.
  std::vector<VertexId> vertex;
  /// Inverse map: binarized leaf node per vertex id.
  std::vector<par::NodeId> leaf_of_vertex;

  [[nodiscard]] std::size_t size() const { return tree.size(); }
  void validate() const;
};

/// Read-only span view of a binarized cotree — the currency between the
/// binarizer and the host sweeps, independent of what owns the arrays.
struct BinView {
  std::span<const std::int32_t> left;
  std::span<const std::int32_t> right;
  std::span<const std::uint8_t> is_join;
  std::span<const VertexId> vertex;
  std::span<const par::NodeId> leaf_of_vertex;
  std::int32_t root = -1;

  [[nodiscard]] std::size_t size() const { return left.size(); }
};

[[nodiscard]] inline BinView view_of(const BinarizedCotree& bc) {
  return BinView{bc.tree.left, bc.tree.right, bc.is_join,
                 bc.vertex,    bc.leaf_of_vertex, bc.tree.root};
}

/// Arena-backed binarized cotree (the request-path form the sequential
/// backends use): identical layout to BinarizedCotree, storage recycled
/// through `arena`.
struct ScratchBinarized {
  exec::ScratchVec<std::int32_t> parent, left, right;
  exec::ScratchVec<std::uint8_t> is_join;
  exec::ScratchVec<VertexId> vertex;
  exec::ScratchVec<par::NodeId> leaf_of_vertex;
  std::int32_t root = -1;

  explicit ScratchBinarized(exec::Arena& arena)
      : parent(arena), left(arena), right(arena), is_join(arena),
        vertex(arena), leaf_of_vertex(arena) {}

  [[nodiscard]] std::size_t size() const { return left.size(); }
  [[nodiscard]] BinView view() const {
    return BinView{left.span(),   right.span(),         is_join.span(),
                   vertex.span(), leaf_of_vertex.span(), root};
  }
};

/// Host binarization (iterative, no recursion depth limits; worklists come
/// from the calling thread's arena).
BinarizedCotree binarize(const Cotree& t);

/// Same algorithm, arena storage end to end (output arrays AND worklists
/// from `arena`). Node layout is identical to binarize(): both are thin
/// storage adapters over one implementation in binarize.cpp.
void binarize_scratch(const Cotree& t, exec::Arena& arena,
                      ScratchBinarized& out);

/// Host leftist transform: returns descendant-leaf counts L(u) and swaps
/// children in place so L(left) >= L(right) everywhere.
std::vector<std::int64_t> make_leftist(BinarizedCotree& bc);

/// Arena variant over scratch storage; fills `leaf_count` (resized to the
/// node count).
void make_leftist_scratch(ScratchBinarized& bc,
                          exec::ScratchVec<std::int64_t>& leaf_count);

}  // namespace copath::cograph
