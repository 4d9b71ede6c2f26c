#include "pipescg/krylov/registry.hpp"

#include <algorithm>

#include "pipescg/base/error.hpp"
#include "pipescg/krylov/cg.hpp"
#include "pipescg/krylov/hybrid.hpp"
#include "pipescg/krylov/pipecg.hpp"
#include "pipescg/krylov/sstep_driver.hpp"

namespace pipescg::krylov {

std::unique_ptr<Solver> make_solver(const std::string& name) {
  if (name == "pcg") return std::make_unique<CgSolver>();
  if (name == "pipecg") return std::make_unique<PipeCgSolver>();
  if (name == "hybrid") return std::make_unique<HybridSolver>();
  // Every other name is one variant of the s-step driver.
  const std::vector<std::string> names = solver_names();
  if (std::find(names.begin(), names.end(), name) != names.end())
    return std::make_unique<SStepSolver>(sstep_variant(name));
  PIPESCG_FAIL("unknown solver '" + name +
               "'; known: pcg pipecg pipecg3 pipecg-oati scg pscg scg-sspmv "
               "pipe-scg pipe-pscg hybrid");
}

std::vector<std::string> solver_names() {
  return {"pcg",  "pipecg",    "pipecg3",  "pipecg-oati", "scg",
          "pscg", "scg-sspmv", "pipe-scg", "pipe-pscg",   "hybrid"};
}

bool solver_uses_preconditioner(const std::string& name) {
  return name != "scg" && name != "scg-sspmv" && name != "pipe-scg";
}

}  // namespace pipescg::krylov
