#include "core/pipeline.hpp"

#include "core/pipeline_exec.hpp"

namespace copath::core {

// The stage code lives in core/pipeline_exec.hpp, generic over the
// executor; this translation unit pins the checked-simulator instantiation
// so callers of the historical entry point link against one copy.
PathCover min_path_cover_pram(pram::Machine& m, const cograph::Cotree& t,
                              const PipelineOptions& opt,
                              PipelineTrace* trace) {
  return min_path_cover_exec(m, t, opt, trace);
}

}  // namespace copath::core
