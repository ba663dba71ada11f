// lagraph/algorithms/bfs.hpp — breadth-first search (paper §IV-A).
//
// The parent BFS is one masked vxm per level with the any.secondi semiring:
//   qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A
// secondi makes the product a(k,j)·… evaluate to k — the parent id — and the
// `any` monoid picks an arbitrary valid parent (the benign race of GAP's
// bfs.cc, §IV-A). The direction-optimizing variant (Alg. 2) switches between
// that push step and the pull step q⟨¬s(p), r⟩ = Aᵀ any.secondi q on the
// explicitly cached transpose; the per-level choice comes from the grb::plan
// cost model (push cost |q|·d̄ vs pull cost over the unvisited candidates,
// early-out credit for the `any` terminal monoid). Advanced variants pin the
// direction through the plan hint instead of bypassing the planner.
//
// Basic mode (lagraph::bfs) computes whatever cached properties it needs on
// the Graph; Advanced mode (lagraph::advanced::bfs_*) never mutates the
// graph and errors with LAGRAPH_PROPERTY_MISSING instead (paper §II-B).
#pragma once

#include <cstdint>

#include "lagraph/graph.hpp"

namespace lagraph {

namespace detail {

/// Shared BFS engine. Each level's push/pull choice routes through
/// grb::plan::make_plan; `hint` pins the direction (Advanced push-only
/// variant) and `at` may be null when pulls never happen.
template <typename T>
void bfs_engine(grb::Vector<std::int64_t> *level,
                grb::Vector<std::int64_t> *parent, const grb::Matrix<T> &a,
                const grb::Matrix<T> *at, grb::Index source,
                grb::plan::Direction hint) {
  const grb::Index n = a.nrows();
  if (source >= n) {
    throw grb::Exception(grb::Info::invalid_index, "bfs: source out of range");
  }
  grb::AnySecondI<std::int64_t> semiring;

  grb::Vector<std::int64_t> q(n);  // frontier, values = parent ids
  q.set_element(source, static_cast<std::int64_t>(source));
  grb::Vector<std::int64_t> p(n);  // parent vector
  p.set_element(source, static_cast<std::int64_t>(source));
  // Bitmap upfront (planner-pinnable): the per-level updates p⟨s(q)⟩ = q and
  // level⟨s(q)⟩ = d then scatter in place (O(|q|)) instead of rebuilding
  // O(n) arrays — the difference between one and thousands of O(n) passes on
  // the Road graph.
  grb::plan::prepare(p, grb::plan::iterative_output_format(n));
  grb::Vector<std::int64_t> lv(n);
  if (level != nullptr) {
    lv.set_element(source, 0);
    grb::plan::prepare(lv, grb::plan::iterative_output_format(n));
  }

  grb::Index nvisited = 1;
  std::int64_t depth = 0;

  while (true) {
    const grb::Index nq = q.nvals();
    if (nq == 0) break;

    // One span + burble line per level: frontier size, the planner's
    // direction, and the level's wall time (GraphBLAST-style per-iteration
    // instrumentation — an end-to-end timer can't show the switch point).
    grb::trace::ScopedSpan lsp(grb::trace::SpanKind::bfs_level);
    lsp.set_iter(depth + 1);
    lsp.set_in_nvals(nq);

    // Plan this level: push scatters the frontier's out-edges, pull probes
    // the unvisited rows of Aᵀ with early exit (any is a terminal monoid).
    grb::plan::OpDesc od;
    od.op = grb::plan::OpKind::traversal;
    od.out_size = n;
    od.a_rows = a.nrows();
    od.a_cols = a.ncols();
    od.a_nvals = a.nvals();
    od.u_nvals = nq;
    od.pull_candidates = n - nvisited;
    od.masked = true;
    od.mask_complement = true;
    od.mask_structural = true;
    od.mask_nvals = nvisited;
    od.has_terminal = true;
    od.has_transpose = at != nullptr;
    od.hint = hint;
    const auto pl = grb::plan::make_plan(od);
    lsp.set_plan(pl);
    // The product and the two frontier stamps — p⟨s(q)⟩ = q (parents) and
    // level⟨s(q)⟩ = depth+1 — go through the fused entry points: one kernel
    // sweep when the operands allow it, the exact mxv/vxm + assign + assign
    // composition otherwise. Stamping an empty
    // frontier is a no-op, so the termination check can follow the call.
    grb::Vector<std::int64_t> *lvp = level != nullptr ? &lv : nullptr;
    if (pl.direction == grb::plan::Direction::pull) {
      // q⟨¬s(p), r⟩ = Aᵀ any.secondi q
      grb::fused_mxv_apply(q, p, semiring, *at, q, grb::desc::RSC, &p, lvp,
                           depth + 1);
    } else {
      // qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A
      grb::fused_vxm_apply(q, p, semiring, q, a, grb::desc::RSC, &p, lvp,
                           depth + 1);
    }
    lsp.set_out_nvals(q.nvals());
    if (q.nvals() == 0) break;
    ++depth;
    nvisited += q.nvals();
    if (nvisited == n) break;
  }

  if (parent != nullptr) *parent = std::move(p);
  if (level != nullptr) *level = std::move(lv);
}

}  // namespace detail

namespace advanced {

inline void detail_check_outputs(const void *level, const void *parent,
                                 char *) {
  if (level == nullptr && parent == nullptr) {
    throw grb::Exception(grb::Info::null_pointer,
                         "bfs: at least one of level/parent is required");
  }
}

/// Push-only parents/levels BFS (Alg. 1). Requires nothing beyond A; never
/// touches the graph's property cache.
template <typename T>
int bfs_push(grb::Vector<std::int64_t> *level,
             grb::Vector<std::int64_t> *parent, const Graph<T> &g,
             grb::Index source, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    detail_check_outputs(level, parent, msg);
    lagraph::detail::bfs_engine(level, parent, g.a,
                                static_cast<const grb::Matrix<T> *>(nullptr),
                                source, grb::plan::Direction::push);
    return LAGRAPH_OK;
  });
}

/// Direction-optimizing BFS (Alg. 2). Strict: a directed graph must already
/// have its transpose cached (LAGRAPH_PROPERTY_MISSING otherwise) — an
/// Advanced-mode algorithm never surprises the caller with hidden work
/// (paper §II-B).
template <typename T>
int bfs_do(grb::Vector<std::int64_t> *level,
           grb::Vector<std::int64_t> *parent, const Graph<T> &g,
           grb::Index source, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    detail_check_outputs(level, parent, msg);
    const grb::Matrix<T> *at = g.transpose_view();
    if (at == nullptr) {
      return lagraph::detail::set_msg(
          msg, LAGRAPH_PROPERTY_MISSING,
          "bfs_do: directed graph needs the cached transpose (property_at)");
    }
    lagraph::detail::bfs_engine(level, parent, g.a, at, source,
                                grb::plan::Direction::none);
    return LAGRAPH_OK;
  });
}

}  // namespace advanced

/// Basic-mode BFS: computes and caches the transpose when profitable, then
/// runs the direction-optimizing algorithm. "A basic user wants to compute
/// [the answer]…they simply want the correct answer" (paper §II-B).
template <typename T>
int bfs(grb::Vector<std::int64_t> *level, grb::Vector<std::int64_t> *parent,
        Graph<T> &g, grb::Index source, char *msg) {
  int status = property_at(g, msg);
  if (status < 0) return status;
  return advanced::bfs_do(level, parent, g, source, msg);
}

}  // namespace lagraph
