/**
 * @file
 * Umbrella API of the static-analysis layer: one call that runs the
 * graph verifier, the schedule lifetime analyzer (against liveness and
 * the memory plan), and — for parallel execution — the ready-queue
 * hazard detector over everything a fetch set depends on.
 *
 * Consumed three ways:
 *  - the echo-lint CLI (tools/echo_lint.cc) for CI,
 *  - tests, as a mandatory post-pass check,
 *  - the pass manager's checkers, including the "verify" pass that a
 *    pipeline spec (e.g. ECHO_PASSES=autodiff,fusion,verify) appends.
 */
#ifndef ECHO_ANALYSIS_ANALYSIS_H
#define ECHO_ANALYSIS_ANALYSIS_H

#include "analysis/fusion_audit.h"
#include "analysis/graph_verifier.h"
#include "analysis/hazards.h"
#include "analysis/lifetime.h"
#include "analysis/numeric_verify.h"
#include "analysis/pass_audit.h"
#include "analysis/report.h"

namespace echo::analysis {

/** What analyzeAll should run. */
struct AnalyzeOptions
{
    /** Replay the memory plan in the lifetime analyzer. */
    bool with_plan = true;
    /** Run the ready-queue hazard detector (parallel execution). */
    bool parallel_hazards = true;
};

/**
 * Run every applicable analyzer over the subgraph @p fetches reaches.
 * @p weight_grads (gradient values) justify persistent lifetimes.
 */
AnalysisReport analyzeAll(const std::vector<graph::Val> &fetches,
                          const std::vector<graph::Val> &weight_grads = {},
                          const AnalyzeOptions &opts = {});

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_ANALYSIS_H
