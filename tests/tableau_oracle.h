// tableau_oracle.h -- the dense tableau as a test reference, certified
// before any test compares against it.
//
// The tableau is an independent simplex, which is what makes it a useful
// reference, but it is only trustworthy on small problems (see
// lp::Backend::Tableau). A comparison against an answer nobody checked
// proves nothing, so every tableau reference goes through lp::Verifier
// first and a rejected one fails the calling test.
#pragma once

#include <gtest/gtest.h>

#include "lp/certify.h"
#include "lp/problem.h"
#include "lp/solve.h"

namespace agora::oracle {

/// Solve `p` on the tableau with `opts`' caps and tolerances, and fail the
/// calling test unless lp::Verifier certifies the answer against `p`.
inline lp::SolveResult certified_tableau(const lp::Problem& p, lp::SolveOptions opts = {}) {
  opts.backend = lp::Backend::Tableau;
  lp::SolveResult r = lp::solve(p, opts);
  const lp::Certificate cert = lp::Verifier(opts.tols).certify(p, r);
  EXPECT_TRUE(cert.certified) << "tableau reference (" << lp::to_string(r.status)
                              << ") failed certification: "
                              << (cert.reject != nullptr ? cert.reject : "");
  return r;
}

}  // namespace agora::oracle
