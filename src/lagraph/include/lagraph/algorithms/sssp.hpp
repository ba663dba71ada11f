// lagraph/algorithms/sssp.hpp — single-source shortest paths by
// delta-stepping (paper §IV-D, Alg. 5; Sridhar et al.).
//
// The adjacency matrix is split once into light (w ≤ Δ) and heavy (w > Δ)
// edges. Buckets of tentative distances t ∈ [iΔ, (i+1)Δ) are settled by
// repeated min.plus relaxations over the light edges (each one vxm push from
// the bucket frontier); the heavy edges of everything settled in the bucket
// are then relaxed once. t is kept sparse: only reached nodes have entries,
// which is what makes the bucket selections cheap selects.
#pragma once

#include <cstdint>

#include "lagraph/graph.hpp"

namespace lagraph {
namespace advanced {

/// Delta-stepping SSSP. Advanced mode: g is never mutated; edge weights must
/// be positive (delta-stepping's correctness condition); delta > 0.
template <typename T>
int sssp_delta_stepping(grb::Vector<double> *dist, const Graph<T> &g,
                        grb::Index source, double delta, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    if (dist == nullptr) {
      return lagraph::detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                                      "sssp: dist is null");
    }
    if (!(delta > 0)) {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "sssp: delta must be positive");
    }
    const grb::Index n = g.nodes();
    if (source >= n) {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "sssp: source out of range");
    }

    // A_L = A⟨0 < A ≤ Δ⟩, A_H = A⟨Δ < A⟩ (Alg. 5 lines 2-3)
    grb::Matrix<double> al(n, n);
    grb::Matrix<double> ah(n, n);
    grb::select(al, grb::no_mask, grb::NoAccum{}, grb::ValueLe{}, g.a, delta);
    grb::select(al, grb::no_mask, grb::NoAccum{}, grb::ValueGt{}, al, 0.0);
    grb::select(ah, grb::no_mask, grb::NoAccum{}, grb::ValueGt{}, g.a, delta);

    grb::Vector<double> t(n);  // entries only for reached nodes
    t.set_element(source, 0.0);
    // Bitmap from the start (planner-pinnable): the per-round updates
    // (t min= tReq) then run in place instead of rebuilding O(n) arrays
    // each relaxation.
    grb::plan::prepare(t, grb::plan::iterative_output_format(n));

    grb::MinPlus<double> min_plus;
    grb::Vector<double> tb(n);     // current bucket frontier
    grb::Vector<double> treq(n);   // relaxation candidates
    grb::Vector<double> tmp(n);
    // The wavefront: t's entries at nodes not yet settled, i.e. every
    // t(v) ≥ iΔ. Bucket search, min-reduce and the settled set read it
    // instead of t, so a bucket costs its wavefront, not n.
    grb::Vector<double> front(n);
    front.set_element(source, 0.0);
    // done(v) = 1 iff v was settled in an earlier bucket (t(v) < iΔ, final).
    grb::Vector<grb::Bool> done(n);
    grb::plan::prepare(done, grb::plan::iterative_output_format(n));
    // front⟨¬s(done)⟩ min= treq: follow t's update at every unsettled node.
    // A candidate at a settled node never improves it, so it must not
    // enter the wavefront.
    auto follow = [&](const grb::Vector<double> &cand) {
      grb::apply(front, done, grb::Min{}, grb::Identity{}, cand,
                 grb::desc::SC);
    };

    for (std::uint64_t i = 0;; ++i) {
      // outer termination: any reached node still at distance ≥ iΔ?
      // Pruning the wavefront to t ≥ iΔ drops the last bucket's nodes.
      grb::select(front, grb::no_mask, grb::NoAccum{}, grb::ValueGe{}, front,
                  static_cast<double>(i) * delta);
      if (front.nvals() == 0) break;
      // skip straight to the first non-empty bucket
      double minr = 0;
      grb::reduce(minr, grb::NoAccum{}, grb::MinMonoid<double>{}, front);
      i = std::max(i, static_cast<std::uint64_t>(minr / delta));
      const double lo = static_cast<double>(i) * delta;
      const double hi = lo + delta;

      // bucket i: t ∈ [iΔ, (i+1)Δ)
      grb::select(tb, grb::no_mask, grb::NoAccum{}, grb::ValueGe{}, front,
                  lo);
      grb::select(tb, grb::no_mask, grb::NoAccum{}, grb::ValueLt{}, tb, hi);

      // One span per bucket: initial bucket size, number of light
      // relaxation rounds (extra), and the bucket's wall time.
      grb::trace::ScopedSpan bsp(grb::trace::SpanKind::sssp_bucket);
      bsp.set_iter(static_cast<std::int64_t>(i));
      bsp.set_in_nvals(tb.nvals());
      std::uint64_t rounds = 0;

      while (tb.nvals() != 0) {
        ++rounds;
        // light relaxation fused with the bucket window (Alg. 5 line 10):
        //   treq = tbᵀ min.plus A_L ; tmp = treq⟨lo ≤ · < hi⟩
        // One sweep produces both the full candidate vector (needed for the
        // t min= treq merge below) and the in-bucket prune; unfused it is
        // the exact vxm + select(ValueGe) + select(ValueLt) chain.
        grb::vxm_select_range(treq, tmp, min_plus, tb, al, lo, hi);
        // ...and strictly improve t (or reach a new node):
        //   part 1: candidates at nodes t has never reached
        grb::Vector<double> fresh(n);
        grb::apply(fresh, t, grb::NoAccum{}, grb::Identity{}, tmp,
                   grb::desc::RSC);
        //   part 2: candidates improving an existing entry
        grb::Vector<double> lt(n);
        grb::eWiseMult(lt, grb::no_mask, grb::NoAccum{}, grb::Lt{}, tmp, t);
        grb::select(lt, grb::no_mask, grb::NoAccum{}, grb::ValueGt{}, lt, 0.0);
        grb::Vector<double> improving(n);
        grb::eWiseMult(improving, grb::no_mask, grb::NoAccum{}, grb::First{},
                       tmp, lt);
        grb::eWiseAdd(tb, grb::no_mask, grb::NoAccum{}, grb::Min{}, fresh,
                      improving);

        // t min= treq (Alg. 5 line 15), in place
        grb::assign(t, grb::no_mask, grb::Min{}, treq, grb::Indices::all());
        follow(treq);
      }

      // Settled in bucket i: every wavefront node now below (i+1)Δ — the
      // nodes that entered the bucket, at their final distances.
      // heavy relaxation from them: treq = settledᵀ min.plus A_H ;
      // t min= treq.
      grb::Vector<double> settled(n);
      grb::select(settled, grb::no_mask, grb::NoAccum{}, grb::ValueLt{}, front,
                  hi);
      if (settled.nvals() != 0) {
        grb::vxm(treq, grb::no_mask, grb::NoAccum{}, min_plus, settled, ah);
        grb::assign(t, grb::no_mask, grb::Min{}, treq, grb::Indices::all());
        follow(treq);
        grb::assign(done, settled, grb::NoAccum{}, grb::Bool(1),
                    grb::Indices::all(), grb::desc::S);
      }
      bsp.set_out_nvals(settled.nvals());
      bsp.set_extra(static_cast<double>(rounds));
    }

    *dist = std::move(t);
    return LAGRAPH_OK;
  });
}

}  // namespace advanced

/// Basic-mode SSSP: picks Δ from the cached degree/weight profile if the
/// caller does not supply one, then runs delta-stepping. Unreached nodes
/// have no entry in the result.
template <typename T>
int sssp(grb::Vector<double> *dist, Graph<T> &g, grb::Index source,
         double delta = 0.0, char *msg = nullptr) {
  if (delta <= 0) {
    // The GAP benchmark uses Δ = 2 for its [1, 255]-weighted graphs; scale
    // that choice to the actual maximum edge weight.
    double maxw = 1.0;
    int status = detail::guarded(msg, [&]() {
      grb::reduce(maxw, grb::NoAccum{}, grb::MaxMonoid<double>{}, g.a);
      return LAGRAPH_OK;
    });
    if (status < 0) return status;
    delta = grb::plan::sssp_default_delta(maxw);
  }
  return advanced::sssp_delta_stepping(dist, g, source, delta, msg);
}

}  // namespace lagraph
