#include "core/lsqr.hpp"

#include <sstream>

#include "core/lsqr_engine.hpp"

namespace gaia::core {

std::string to_string(LsqrStop stop) {
  switch (stop) {
    case LsqrStop::kXZero:
      return "x = 0 is the exact solution";
    case LsqrStop::kAtolBtol:
      return "Ax = b solved to atol/btol";
    case LsqrStop::kLeastSquares:
      return "least-squares solution within atol";
    case LsqrStop::kConlim:
      return "cond(A) exceeds conlim";
    case LsqrStop::kAtolBtolEps:
      return "Ax = b solved to machine precision";
    case LsqrStop::kLeastSquaresEps:
      return "least-squares solution at machine precision";
    case LsqrStop::kConlimEps:
      return "cond(A) too large for machine precision";
    case LsqrStop::kIterationLimit:
      return "iteration limit reached";
    case LsqrStop::kNonFinite:
      return "non-finite residual estimate — solve is poisoned";
    case LsqrStop::kSdcDetected:
      return "silent data corruption detected";
  }
  return "unknown";
}

std::string format_estimates(real anorm, real acond, real rnorm, real arnorm,
                             real xnorm) {
  std::ostringstream os;
  os << "estimates: |A|=" << anorm << " cond(A)=" << acond << " |r|=" << rnorm
     << " |A'r|=" << arnorm << " |x|=" << xnorm;
  return os.str();
}

LsqrStop stop_test(const LsqrOptions& options, real bnorm, real anorm,
                   real acond, real rnorm, real arnorm, real xnorm) {
  if (options.atol <= 0 && options.btol <= 0 && options.conlim <= 0)
    return LsqrStop::kIterationLimit;
  const real ctol = options.conlim > 0 ? real{1} / options.conlim : real{0};
  const real test1 = rnorm / bnorm;
  const real test2 = anorm * rnorm > 0 ? arnorm / (anorm * rnorm) : real{0};
  const real test3 = acond > 0 ? real{1} / acond : real{0};
  const real t1s = test1 / (real{1} + anorm * xnorm / bnorm);
  const real rtol = options.btol + options.atol * anorm * xnorm / bnorm;
  // Reference order: each test that holds overrides the ones before it.
  LsqrStop istop = LsqrStop::kIterationLimit;
  if (real{1} + test3 <= real{1}) istop = LsqrStop::kConlimEps;
  if (real{1} + test2 <= real{1}) istop = LsqrStop::kLeastSquaresEps;
  if (real{1} + t1s <= real{1}) istop = LsqrStop::kAtolBtolEps;
  if (ctol > 0 && test3 <= ctol) istop = LsqrStop::kConlim;
  if (options.atol > 0 && test2 <= options.atol)
    istop = LsqrStop::kLeastSquares;
  if ((options.atol > 0 || options.btol > 0) && test1 <= rtol)
    istop = LsqrStop::kAtolBtol;
  return istop;
}

LsqrResult lsqr_solve(const matrix::SystemMatrix& A,
                      const LsqrOptions& options) {
  return lsqr_solve(A, A.known_terms(), options);
}

LsqrResult lsqr_solve(const matrix::SystemMatrix& A,
                      std::span<const real> b, const LsqrOptions& options) {
  LsqrEngine engine(A, b, options);
  engine.run_to_completion();
  return engine.result();
}

}  // namespace gaia::core
