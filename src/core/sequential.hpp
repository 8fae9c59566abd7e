// The sequential O(n) minimum path cover algorithm of Lin, Olariu & Pruesse
// (paper Lemma 2.3) — copath's reference implementation and baseline.
//
// One bottom-up sweep over the leftist binarized cotree maintaining, per
// node, a linked list of vertex-disjoint paths (intrusive next/prev arrays,
// so splicing is O(1)):
//   * 0-node: concatenate the children's covers.
//   * 1-node, Case 1 (p(v) > L(w)): the L(w) vertices of G(w) bridge
//     L(w)+1 of G(v)'s paths into one.
//   * 1-node, Case 2 (p(v) <= L(w)): p(v)-1 vertices bridge all paths into
//     one; the remaining L(w)-p(v)+1 vertices are inserted between
//     consecutive G(v)-vertices (never next to a bridge vertex), yielding a
//     Hamiltonian path.
// Work at a 1-node is O(L(w)), and the L(w) are disjoint, so the sweep is
// O(n) overall.
//
// Every overload runs the same sweep over a BinView with scratch carved
// from an exec::Arena (the calling thread's arena unless one is passed),
// so covers are bitwise-identical across them and a warm serving thread
// sweeps without heap allocations beyond the returned PathCover.
#pragma once

#include <span>

#include "cograph/binarize.hpp"
#include "cograph/cotree.hpp"
#include "core/path_cover.hpp"
#include "exec/arena.hpp"

namespace copath::core {

/// Minimum path cover in O(n) sequential time (Lemma 2.3).
PathCover min_path_cover_sequential(const cograph::Cotree& t);

/// Same, on an already-prepared leftist binarized cotree (used by benches
/// that want to time the sweep alone).
PathCover min_path_cover_sequential(
    const cograph::BinarizedCotree& bc,
    const std::vector<std::int64_t>& leaf_count);

/// The storage-agnostic core: sweep over any leftist binarized view with
/// scratch from `arena` (the sequential backend's entry point, which
/// shares the tree with the verdict sweep).
PathCover min_path_cover_sequential(const cograph::BinView& bc,
                                    std::span<const std::int64_t> leaf_count,
                                    exec::Arena& arena);

}  // namespace copath::core
