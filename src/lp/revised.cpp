#include "lp/revised.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "lp/standard_form.h"
#include "lp/tolerances.h"
#include "util/matrix.h"

namespace agora::lp {

namespace {

/// Ratio-test pivots below this fraction of ||w||_inf are treated as
/// possible eta-file drift when the factorization is stale: refactorize and
/// recompute the column instead of committing the pivot (see run_phase).
constexpr double kEtaPivotStability = 1e-6;

/// Under Bland's rule only tied ratio-test rows whose pivot is at least this
/// share of the largest tied pivot may leave (see run_phase).
constexpr double kBlandPivotShare = 0.5;

/// x_B = B^-1 b with the denormal clamp refactorize() has always used,
/// writing into reused storage: copy b and run it through the factored
/// basis.
void compute_xb(const StandardForm& sf, SolveWorkspace& W, const SolverOptions& opts) {
  W.xb.assign(sf.b.begin(), sf.b.end());
  W.slu.ftran(W.xb);
  for (double& v : W.xb)
    if (std::fabs(v) < opts.tols.drop) v = 0.0;
}

/// Rebuild the sparse LU of the basis and xb from it. Resets the pivot
/// counter. When `stats` is given, counts the rebuild and refreshes the
/// cheap condition estimate plus the sparsity telemetry.
bool refactorize(const StandardForm& sf, SolveWorkspace& W, const SolverOptions& opts,
                 SolveStats* stats = nullptr) {
  if (!W.slu.factorize(sf, W.basis)) return false;
  compute_xb(sf, W, opts);
  W.pivots_since_factor = 0;
  if (stats) {
    ++stats->refactorizations;
    stats->condition_estimate = W.slu.condition_estimate();
    stats->basis_nnz = W.slu.basis_nnz();
    stats->lu_nnz = W.slu.lu_nnz();
  }
  return true;
}

/// Relative residual ||b - B x_B||_inf / (1 + ||b||_inf). Leaves the raw
/// residual vector in W.resid so a refinement step can reuse it. Pure read
/// of the solve state: calling it never perturbs the iteration.
double xb_residual(const StandardForm& sf, SolveWorkspace& W) {
  const std::size_t m = sf.rows();
  W.resid.assign(m, 0.0);
  double bnorm = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    W.resid[r] = sf.b[r];
    bnorm = std::max(bnorm, std::fabs(sf.b[r]));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double x = W.xb[i];
    if (x == 0.0) continue;
    const std::size_t col = W.basis[i];
    for (std::size_t t = sf.col_start[col]; t < sf.col_start[col + 1]; ++t)
      W.resid[sf.col_row[t]] -= sf.col_val[t] * x;
  }
  double rnorm = 0.0;
  for (double v : W.resid) rnorm = std::max(rnorm, std::fabs(v));
  return rnorm / (1.0 + bnorm);
}

/// Numerical self-check on the basic solution: record the residual, rebuild
/// the inverse if it has drifted past tolerance, then apply one step of
/// iterative refinement (x_B += B^-1 (b - B x_B)) to squeeze out the
/// remaining error. On a healthy basis the residual is ~machine epsilon and
/// this is a cheap no-op-sized correction.
void refine_xb(const StandardForm& sf, SolveWorkspace& W, const SolverOptions& opts,
               SolveStats& stats) {
  double rel = xb_residual(sf, W);
  stats.max_xb_residual = std::max(stats.max_xb_residual, rel);
  if (rel > opts.tols.refactor_residual) {
    ++stats.residual_refactorizations;
    if (!refactorize(sf, W, opts, &stats)) return;
    rel = xb_residual(sf, W);
  }
  if (rel == 0.0) return;
  ++stats.refinement_steps;
  const std::size_t m = sf.rows();
  W.rho.assign(W.resid.begin(), W.resid.end());
  W.slu.ftran(W.rho);
  for (std::size_t r = 0; r < m; ++r) {
    W.xb[r] += W.rho[r];
    if (std::fabs(W.xb[r]) < opts.tols.drop) W.xb[r] = 0.0;
  }
}

/// Relative residual ||B w - a_col||_inf / (1 + ||a_col||_inf) of the
/// tableau column W.w claimed for entering column `col`. The solver
/// verifies every column with this before the ratio test: the rhs-based
/// xb_residual check is structurally blind on heavily degenerate problems
/// (when every nonzero of x_B sits on a slack column, b - B x_B is exactly
/// zero no matter how far the eta file has drifted), and an unverified
/// drifted column can pivot a dependent column into the basis. O(nnz of the
/// basis columns w touches). Clobbers W.resid.
double tableau_column_residual(const StandardForm& sf, SolveWorkspace& W,
                               std::size_t col) {
  const std::size_t m = sf.rows();
  W.resid.assign(m, 0.0);
  double anorm = 0.0;
  for (std::size_t t = sf.col_start[col]; t < sf.col_start[col + 1]; ++t) {
    W.resid[sf.col_row[t]] = sf.col_val[t];
    anorm = std::max(anorm, std::fabs(sf.col_val[t]));
  }
  double bmax = 0.0;
  double wmax = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double wi = W.w[i];
    if (wi == 0.0) continue;
    wmax = std::max(wmax, std::fabs(wi));
    const std::size_t bcol = W.basis[i];
    for (std::size_t t = sf.col_start[bcol]; t < sf.col_start[bcol + 1]; ++t) {
      W.resid[sf.col_row[t]] -= sf.col_val[t] * wi;
      bmax = std::max(bmax, std::fabs(sf.col_val[t]));
    }
  }
  double rnorm = 0.0;
  for (double v : W.resid) rnorm = std::max(rnorm, std::fabs(v));
  // Normwise backward error: a stable solve satisfies
  // ||a - B w|| <= O(eps) * (||a|| + ||B|| ||w||), so the denominator must
  // scale with the solution. Dividing by (1 + ||a||) alone condemns every
  // solve whose tableau column is large -- on the degenerate allocation LPs
  // ||w|| reaches 1e3 and a perfectly stable solve shows an "absolute"
  // residual near 1e-7, which is eps-level once normalized.
  return rnorm / (1.0 + anorm + bmax * wmax);
}

/// Normwise backward error of the pricing solve: ||c_B - B' y|| over
/// (1 + ||c_B|| + ||B|| ||y||), with W.y as produced by btran. A small value
/// means the simplex multipliers -- and hence every reduced cost priced with
/// them -- are as trustworthy as if the eta file were empty, so optimality
/// can be declared on stale factors without a refactorization.
double dual_residual(const StandardForm& sf, SolveWorkspace& W) {
  const std::size_t m = sf.rows();
  double cmax = 0.0;
  double ymax = 0.0;
  double bmax = 0.0;
  double rnorm = 0.0;
  for (std::size_t i = 0; i < m; ++i) ymax = std::max(ymax, std::fabs(W.y[i]));
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t bcol = W.basis[i];
    double s = 0.0;
    for (std::size_t t = sf.col_start[bcol]; t < sf.col_start[bcol + 1]; ++t) {
      s += sf.col_val[t] * W.y[sf.col_row[t]];
      bmax = std::max(bmax, std::fabs(sf.col_val[t]));
    }
    cmax = std::max(cmax, std::fabs(W.cb[i]));
    rnorm = std::max(rnorm, std::fabs(W.cb[i] - s));
  }
  return rnorm / (1.0 + cmax + bmax * ymax);
}

/// w = B^-1 A_col: scatter the CSC column and sweep the LU factors + eta
/// file (work scales with the factor nonzeros).
void ftran(const StandardForm& sf, SolveWorkspace& W, std::size_t col) {
  W.w.assign(sf.rows(), 0.0);
  for (std::size_t t = sf.col_start[col]; t < sf.col_start[col + 1]; ++t)
    W.w[sf.col_row[t]] = sf.col_val[t];
  W.slu.ftran(W.w);
}

/// y' = c_B' B^-1 into W.y: transpose solve through the factored basis.
void btran(SolveWorkspace& W) {
  W.y.assign(W.cb.begin(), W.cb.end());
  W.slu.btran(W.y);
}

/// Reduced cost d_j = c_j - y' A_j over the column's nonzeros.
double reduced_cost(const StandardForm& sf, const SolveWorkspace& W,
                    const std::vector<double>& cost, std::size_t j) {
  const std::size_t start = sf.col_start[j];
  return cost[j] - gather_dot(W.y.data(), sf.col_row.data() + start,
                              sf.col_val.data() + start, sf.col_start[j + 1] - start);
}

/// Basis update after column `enter` (with tableau column W.w) replaces the
/// basic variable of row `leave`. W.w *is* the product-form eta vector, so
/// absorbing the pivot is one sparse copy; xb takes the elementary update.
void update(SolveWorkspace& W, std::size_t leave, std::size_t enter,
            const SolverOptions& opts, SolveStats& stats) {
  const std::size_t m = W.basis.size();
  const double inv = 1.0 / W.w[leave];
  W.slu.push_eta(leave, W.w, opts.tols.drop);
  stats.max_eta_count = std::max<std::uint64_t>(stats.max_eta_count, W.slu.eta_count());
  W.xb[leave] *= inv;
  for (std::size_t r = 0; r < m; ++r) {
    if (r == leave) continue;
    const double f = W.w[r];
    if (f == 0.0) continue;
    W.xb[r] -= f * W.xb[leave];
    if (std::fabs(W.xb[r]) < opts.tols.drop) W.xb[r] = 0.0;
  }
  W.basis[leave] = enter;
  ++W.pivots_since_factor;
}

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit, NumericalFailure };

/// One simplex phase. On Unbounded, `*unbounded_enter` receives the entering
/// column whose tableau column (still in W.w) had no blocking row -- the raw
/// material of the unboundedness ray.
PhaseOutcome run_phase(const StandardForm& sf, SolveWorkspace& W,
                       const std::vector<double>& cost, const SolverOptions& opts,
                       std::uint64_t& iterations, SolveStats& stats,
                       std::size_t* unbounded_enter = nullptr) {
  std::uint64_t degenerate_streak = 0;
  const std::size_t m = sf.rows();
  const std::size_t n = sf.cols();
  W.in_basis.assign(n, false);
  for (std::size_t b : W.basis) W.in_basis[b] = true;

  // Partial pricing: scan candidate columns in blocks starting from a
  // rotating cursor and enter the best reduced cost of the first block that
  // has one; optimality is only declared after a full sweep of all n columns
  // finds none, so the claim is as strong as full Dantzig pricing.
  //
  // The block doubles after every degenerate pivot and snaps back to the
  // base size on real progress. On heavily degenerate problems a fixed
  // block is poison: every column it can see ties at ratio zero (the
  // allocation LPs are ring-symmetric, so whole blocks are interchangeable
  // junk), the cursor crawls, and the solver burns its stall budget before
  // ever seeing the distant column a full Dantzig scan would enter first.
  // Escalating to a full scan under degeneracy buys full pricing's stall
  // behavior while keeping block pricing where it pays.
  const std::size_t base_block = std::max<std::size_t>(64, n / 8);
  std::size_t price_block = base_block;
  std::size_t price_cursor = 0;

  for (std::uint64_t it = 0; it < opts.max_iterations; ++it) {
    const bool bland = degenerate_streak >= opts.stall_threshold;
    // Periodic refactorization, keyed on the solve's pivot counter so the
    // eta file stays bounded by kRefactorInterval across the phase-1 ->
    // phase-2 transition (the eta file persists there).
    // Cost-based cadence on top of the pivot count: once the eta file holds
    // more nonzeros than the LU factors themselves, every ftran/btran pays
    // more to replay the update history than to apply the factorization, so
    // rebuilding is cheaper than carrying on. The pivot floor stops the
    // trigger from thrashing early in phase 1, where the slack basis factors
    // to lu_nnz ~ m and a couple of etas already outweigh it even though the
    // file is still trivially cheap to replay.
    const bool eta_heavy = W.pivots_since_factor >= 8 && W.slu.eta_nnz() > W.slu.lu_nnz();
    if (W.pivots_since_factor >= kRefactorInterval || eta_heavy) {
      if (!refactorize(sf, W, opts, &stats)) return PhaseOutcome::NumericalFailure;
    } else if (W.pivots_since_factor > 0) {
      // Residual-triggered refactorization: elementary updates accumulate
      // drift between the periodic rebuilds; catch it as soon as the basic
      // solution stops satisfying its own defining system.
      const double rel = xb_residual(sf, W);
      stats.max_xb_residual = std::max(stats.max_xb_residual, rel);
      if (rel > opts.tols.refactor_residual) {
        ++stats.residual_refactorizations;
        if (!refactorize(sf, W, opts, &stats)) return PhaseOutcome::NumericalFailure;
      }
    }
    // Price: y = c_B' B^-1, then reduced costs d_j = c_j - y' A_j over each
    // candidate column's nonzeros.
    W.cb.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) W.cb[r] = cost[W.basis[r]];
    btran(W);
    // While Bland's rule is active the solver insists on trustworthy
    // pricing every iteration, not just at optimality: the anti-cycling
    // proof assumes exact pivot selection, and eta drift in y (a column
    // whose true reduced cost is zero showing d < -tol) breaks it. A
    // backward-stable y -- verified directly, one pass over the basis
    // columns -- carries the same error level as pricing off fresh factors,
    // so only a failed check forces the rebuild (refactorizing every Bland
    // iteration unconditionally costs more than the stall itself).
    if (bland && W.pivots_since_factor > 0 &&
        dual_residual(sf, W) > opts.tols.refactor_residual) {
      ++stats.residual_refactorizations;
      if (!refactorize(sf, W, opts, &stats)) return PhaseOutcome::NumericalFailure;
      W.cb.assign(m, 0.0);
      for (std::size_t r = 0; r < m; ++r) W.cb[r] = cost[W.basis[r]];
      btran(W);
    }

    std::size_t enter = n;
    if (bland) {
      // Bland's rule: lowest-index improving column, scanned in full.
      for (std::size_t j = 0; j < n; ++j) {
        if (!W.allowed[j] || W.in_basis[j]) continue;
        if (reduced_cost(sf, W, cost, j) < -opts.tol) {
          enter = j;
          break;
        }
      }
    } else {
      double best = -opts.tol;
      std::size_t scanned = 0;
      while (scanned < n && enter == n) {
        const std::size_t limit = std::min(n, scanned + price_block);
        for (; scanned < limit; ++scanned) {
          std::size_t j = price_cursor + scanned;
          if (j >= n) j -= n;
          if (!W.allowed[j] || W.in_basis[j]) continue;
          const double d = reduced_cost(sf, W, cost, j);
          if (d < best) {
            best = d;
            enter = j;
          }
        }
      }
      if (enter != n) price_cursor = enter + 1 < n ? enter + 1 : 0;
    }
    if (enter == n) {
      // Only declare optimality against trustworthy pricing --
      // y came through the eta file, and a drifted y can make an improving
      // column look priced-out. A backward-stable y (checked directly, one
      // pass over the basis columns) is as good as fresh factors; only when
      // the check fails is a rebuild + re-price needed, so a solve whose
      // factors are healthy ends without one.
      if (W.pivots_since_factor > 0 && dual_residual(sf, W) > opts.tols.refactor_residual) {
        if (!refactorize(sf, W, opts, &stats)) return PhaseOutcome::NumericalFailure;
        continue;
      }
      return PhaseOutcome::Optimal;
    }

    ftran(sf, W, enter);
    // Verify the tableau column before the ratio test sees it.
    // The xb-residual trigger cannot catch eta drift on heavily degenerate
    // problems (see tableau_column_residual), and a pivot committed from a
    // drifted column can wedge a dependent column into the basis -- after
    // which every refactorization fails. A failed check first gets one step
    // of iterative refinement (the verification already left a - B w in
    // W.resid, so the correction is a single extra solve) -- that also
    // absorbs Markowitz element growth, which fresh factors inherit -- and
    // only an unrefinable column forces a refactorization.
    const auto refined_residual = [&](std::size_t col) {
      const double rel = tableau_column_residual(sf, W, col);
      if (rel <= opts.tols.refactor_residual) return rel;
      W.rho.assign(W.resid.begin(), W.resid.end());
      W.slu.ftran(W.rho);
      for (std::size_t i = 0; i < m; ++i) W.w[i] += W.rho[i];
      return tableau_column_residual(sf, W, col);
    };
    if (refined_residual(enter) > opts.tols.refactor_residual && W.pivots_since_factor > 0) {
      ++stats.residual_refactorizations;
      if (!refactorize(sf, W, opts, &stats)) return PhaseOutcome::NumericalFailure;
      ftran(sf, W, enter);
      (void)refined_residual(enter);
    }
    std::size_t leave = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    double wmax = 0.0;
    for (std::size_t r = 0; r < m; ++r) wmax = std::max(wmax, std::fabs(W.w[r]));
    // Eta-file stability floor (stale factors only): an entry that is
    // noise-sized relative to the tableau column is as likely to be
    // accumulated eta drift as a real value -- pivoting on it can wedge a
    // dependent column into the basis (B becomes singular and the next
    // refactorization fails). With fresh factors the absolute tolerance
    // already screens drift (a true-zero entry resolves to ~eps * ||w||), so
    // the relative floor only applies while the eta file is non-empty -- and
    // never under Bland's rule, where the verified (and if needed refined)
    // tableau column is the drift screen instead and the pivot-share rule
    // below keeps the chosen pivots large.
    const double pivot_floor = !bland && W.pivots_since_factor > 0
                                   ? std::max(opts.tol, kEtaPivotStability * wmax)
                                   : opts.tol;
    // Ratio-test tie-break: outside Bland's rule prefer the largest pivot
    // among tied ratios (degenerate LPs tie dozens of rows at ratio 0, and a
    // noise-sized pivot there poisons the product-form eta file); under it,
    // the lowest basis index.
    //
    // A basic column that may not enter -- an artificial phase 1 left basic
    // at zero level, in phase 2 -- is pinned at zero: moving it either way
    // breaks its original row. w_r > 0 already blocks it; w_r < 0 would let
    // it grow, so such a row blocks too, at ratio 0. (The tableau instead
    // pivots those artificials out after phase 1; blocking here changes
    // nothing on the pivot paths that never grow one.)
    for (std::size_t r = 0; r < m; ++r) {
      const bool pinned = W.w[r] < -pivot_floor && !W.allowed[W.basis[r]];
      if (W.w[r] <= pivot_floor && !pinned) continue;
      const double ratio = pinned ? 0.0 : W.xb[r] / W.w[r];
      bool better = ratio < best_ratio - opts.tol;
      if (!better && ratio < best_ratio + opts.tol && leave < m) {
        better = !bland ? std::fabs(W.w[r]) > std::fabs(W.w[leave])
                        : W.basis[r] < W.basis[leave];
      }
      if (better) {
        best_ratio = ratio;
        leave = r;
      }
    }
    // Under Bland's rule the solver then takes the lowest basis index among
    // the tied rows whose pivot is at least kBlandPivotShare of the largest.
    // The pure lowest-index rule picks small pivots whenever they tie: a
    // cold phase 1 on a large banded system stalls for thousands of ratio-0
    // pivots, and chaining pivots like 0.004 next to 1s grows ||B^-1||
    // geometrically until the basis no longer factors (most cold LPSCALE
    // consults at n = 500 failed that way). Bland's termination proof
    // assumes exact arithmetic anyway; the per-phase iteration cap and the
    // pipeline's certification remain the backstop. A pinned row (negative
    // pivot) keeps its pick: only it stops the artificial from growing.
    if (bland && leave < m && W.w[leave] > 0.0) {
      double tied_max = 0.0;
      for (std::size_t r = 0; r < m; ++r)
        if (W.w[r] > pivot_floor && W.xb[r] / W.w[r] < best_ratio + opts.tol)
          tied_max = std::max(tied_max, W.w[r]);
      const double share_floor = kBlandPivotShare * tied_max;
      std::size_t pick = m;
      for (std::size_t r = 0; r < m; ++r) {
        if (W.w[r] <= pivot_floor || W.w[r] < share_floor) continue;
        if (W.xb[r] / W.w[r] >= best_ratio + opts.tol) continue;
        if (pick == m || W.basis[r] < W.basis[pick]) pick = r;
      }
      leave = pick;  // the largest tied pivot always qualifies
    }
    if (leave == m) {
      // Unboundedness, like optimality, is only declared against fresh
      // factors: the relative floor may have screened out drift-sized
      // entries, and a drifted column can hide the true blocking row.
      if (W.pivots_since_factor > 0) {
        if (!refactorize(sf, W, opts, &stats)) return PhaseOutcome::NumericalFailure;
        continue;
      }
      if (unbounded_enter) *unbounded_enter = enter;
      return PhaseOutcome::Unbounded;
    }

    if (best_ratio <= opts.tol) {
      ++degenerate_streak;
      price_block = std::min(n, price_block * 2);
    } else {
      degenerate_streak = 0;
      price_block = base_block;
    }
    if (bland) ++stats.bland_pivots;
    W.in_basis[W.basis[leave]] = false;
    W.in_basis[enter] = true;
    update(W, leave, enter, opts, stats);
    ++iterations;
  }
  return PhaseOutcome::IterationLimit;
}

}  // namespace

SolveResult RevisedSimplexSolver::solve(const Problem& p) const { return solve(p, nullptr); }

SolveResult RevisedSimplexSolver::solve(const Problem& p, SolveWorkspace* ws) const {
  SolveResult res;
  if (p.num_variables() == 0) {
    res.status = Status::Optimal;
    for (std::size_t i = 0; i < p.num_constraints(); ++i) {
      const auto& c = p.constraint(i);
      const double tol = scaled(opts_.tols.drop, std::fabs(c.rhs));
      const bool ok = (c.rel == Relation::LessEqual && 0.0 <= c.rhs + tol) ||
                      (c.rel == Relation::GreaterEqual && 0.0 >= c.rhs - tol) ||
                      (c.rel == Relation::Equal && std::fabs(c.rhs) <= tol);
      if (!ok) res.status = Status::Infeasible;
    }
    return res;
  }

  std::optional<SolveWorkspace> local;
  SolveWorkspace& W = ws ? *ws : local.emplace();
  // rhs-only motion (the allocator's repeated-support patch) skips the full
  // conversion: b is recomputed in O(m) from the cached offset dots.
  if (!repatch_standard_form_rhs(p, W.sf)) rebuild_standard_form(p, W.sf);
  const StandardForm& sf = W.sf;
  const std::size_t m = sf.rows();
  const std::size_t n = sf.cols();

  double bnorm = 0.0;
  for (std::size_t r = 0; r < m; ++r) bnorm = std::max(bnorm, std::fabs(sf.b[r]));

  W.basis = sf.initial_basis;
  if (!refactorize(sf, W, opts_, &res.stats)) {
    // The initial slack/artificial basis is an identity; failure here would
    // be a construction bug.
    res.status = Status::Infeasible;
    return res;
  }

  if (sf.has_artificials()) {
    W.cost1.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j)
      if (sf.is_artificial[j]) W.cost1[j] = 1.0;
    W.allowed.assign(n, true);
    const PhaseOutcome out = run_phase(sf, W, W.cost1, opts_, res.iterations, res.stats);
    if (out == PhaseOutcome::IterationLimit || out == PhaseOutcome::NumericalFailure) {
      res.status = Status::IterationLimit;
      return res;
    }
    double art_sum = 0.0;
    for (std::size_t r = 0; r < m; ++r)
      if (sf.is_artificial[W.basis[r]]) art_sum += W.xb[r];
    if (art_sum > scaled(opts_.tols.artificial, bnorm)) {
      // Phase 1 ended at a positive artificial sum: the problem is
      // infeasible, and the phase-1 duals y = c1_B' B^-1 are a Farkas
      // certificate -- every real column has non-negative phase-1 reduced
      // cost (y'A_j <= 0) while y'b equals the positive artificial sum.
      W.cb.assign(m, 0.0);
      for (std::size_t r = 0; r < m; ++r) W.cb[r] = W.cost1[W.basis[r]];
      btran(W);
      res.farkas = W.y;
      res.status = Status::Infeasible;
      return res;
    }
  }

  // Phase 2 bars artificials from entering. Those phase 1 left basic at zero
  // level stay pinned there by the ratio test (see run_phase).
  W.allowed.assign(n, true);
  for (std::size_t j = 0; j < n; ++j)
    if (sf.is_artificial[j]) W.allowed[j] = false;

  std::size_t unbounded_enter = n;
  const PhaseOutcome out =
      run_phase(sf, W, sf.c, opts_, res.iterations, res.stats, &unbounded_enter);
  switch (out) {
    case PhaseOutcome::IterationLimit:
    case PhaseOutcome::NumericalFailure:
      res.status = Status::IterationLimit;
      return res;
    case PhaseOutcome::Unbounded: {
      // Certificate: the entering column's tableau column w = B^-1 A_q had
      // no blocking row, so d with d_q = 1, d_{basis[r]} = -w_r is a
      // non-negative recession direction with A d = 0 and c'd < 0. The
      // current basic point (feasible by phase invariant) rides along as
      // the point the ray improves from.
      res.ray.assign(n, 0.0);
      res.ray[unbounded_enter] = 1.0;
      for (std::size_t r = 0; r < m; ++r) {
        double v = -W.w[r];
        if (std::fabs(v) < opts_.tols.drop) v = 0.0;
        res.ray[W.basis[r]] = v;
      }
      W.ysol.assign(n, 0.0);
      for (std::size_t r = 0; r < m; ++r) W.ysol[W.basis[r]] = W.xb[r];
      res.x = recover_solution(sf, W.ysol, p.num_variables());
      res.status = Status::Unbounded;
      return res;
    }
    case PhaseOutcome::Optimal:
      break;
  }

  // Numerical self-check + one refinement step before the answer leaves the
  // solver (see refine_xb).
  refine_xb(sf, W, opts_, res.stats);

  W.ysol.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) W.ysol[W.basis[r]] = W.xb[r];
  res.x = recover_solution(sf, W.ysol, p.num_variables());
  double obj = sf.c0;
  for (std::size_t j = 0; j < n; ++j) obj += sf.c[j] * W.ysol[j];
  res.objective = sf.obj_scale * obj;

  // Shadow prices: y = c_B' B^{-1}, mapped through row negation and sense.
  {
    W.cb.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) W.cb[r] = sf.c[W.basis[r]];
    btran(W);
    res.duals.assign(p.num_constraints(), 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t origin = sf.row_origin[r];
      if (origin == static_cast<std::size_t>(-1)) continue;
      res.duals[origin] = sf.obj_scale * (sf.row_negated[r] ? -W.y[r] : W.y[r]);
    }
  }
  res.status = Status::Optimal;
  return res;
}

}  // namespace agora::lp
