/**
 * @file
 * The fixed pass table and pipeline-spec resolution.
 *
 * Every pipeline is built from these six passes, looked up by name:
 *
 *   autodiff     graph::backward over ctx.loss / ctx.wrt
 *   fusion       element-wise fusion (graph/fusion.h)
 *   recompute    the Echo recompute rewrite (echo/recompute_pass.h)
 *   verify       no transform; runs every checker
 *   plan         memory plan of the current graph (memory/planner.h)
 *   recompute_budget(bytes=256MiB) | (fraction=0.5:solver=dp)
 *                budget-targeted recomputation (budget/planner.h)
 *
 * Pipelines are comma-separated spec strings ("autodiff,fusion").  A
 * spec element may carry arguments in parentheses — ':'-separated
 * key=value pairs, since ',' separates passes — which makePass feeds
 * through Pass::configure before the pass joins the pipeline.  The
 * spec call sites should actually run comes from resolveSpec(), which
 * honours ECHO_PASSES verbatim: ECHO_PASSES=autodiff drops fusion from
 * a training pipeline, ECHO_PASSES=autodiff,fusion,verify audits it.
 */
#ifndef ECHO_PASS_BUILTIN_PASSES_H
#define ECHO_PASS_BUILTIN_PASSES_H

#include <memory>
#include <string>
#include <vector>

#include "pass/pass_manager.h"

namespace echo::pass {

// ---------------------------------------------------------------------
// Pass table
// ---------------------------------------------------------------------

/** Whether @p name (a spec element, "name" or "name(args)") names a
 *  pass in the table. */
bool isRegisteredPass(const std::string &name);

/** Every pass name in the table, sorted. */
std::vector<std::string> registeredPassNames();

/** A fresh instance of the named pass, or nullptr with the reason
 *  (unknown pass, malformed element, Pass::configure rejection) in
 *  @p error.  @p name may be a spec element with arguments
 *  ("name(args)"); the argument text is handed to Pass::configure. */
std::unique_ptr<Pass> makePass(const std::string &name,
                               std::string *error);

// ---------------------------------------------------------------------
// Pipeline specs
// ---------------------------------------------------------------------

/** Split a spec on commas, trimming blanks.  The spec "none" (or "")
 *  yields an empty pipeline. */
std::vector<std::string> parseSpec(const std::string &spec);

/** Which default a call site wants when no spec is given. */
enum class PipelineKind {
    kTraining,  ///< default "autodiff,fusion"
    kInference, ///< default "fusion" (forward-only step graphs)
};

/** The hard-coded default spec for @p kind (no env consulted). */
std::string defaultSpec(PipelineKind kind);

/**
 * The spec a call site should run: @p requested when non-empty (a
 * constructor argument wins over everything), else ECHO_PASSES
 * verbatim, else defaultSpec(kind).
 */
std::string resolveSpec(PipelineKind kind,
                        const std::string &requested = "");

/**
 * Build a PassManager from @p spec.  Unknown pass names are a user
 * error (ECHO_FATAL) naming the passes in the table.
 */
PassManager buildPipeline(const std::string &spec);

} // namespace echo::pass

#endif // ECHO_PASS_BUILTIN_PASSES_H
