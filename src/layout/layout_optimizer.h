/**
 * @file
 * Data-layout optimization (paper §4.2 / §5.3).
 *
 * General data-layout assignment is NP-hard, but in an LSTM every time
 * step runs the *same* fully-connected layer, so the decision collapses
 * to one binary choice per stack: keep the input batch-major
 * ([T x B x H], GEMM form Y = X W^T with M = B) or transpose it to
 * [T x H x B] (GEMM form Y^T = W X^T with M = 4H).  The optimizer makes
 * that choice by timing the two forms of exactly one representative
 * layer, as the paper argues; bench/fig09_gemm_layout prices the same
 * two forms under the analytical GEMM model.
 */
#ifndef ECHO_LAYOUT_LAYOUT_OPTIMIZER_H
#define ECHO_LAYOUT_LAYOUT_OPTIMIZER_H

#include "rnn/rnn_config.h"
#include "tune/tuner.h"

namespace echo::layout {

/** The two candidate layouts for the per-step LSTM input. */
enum class RnnLayout { kTBH, kTHB };

/** Printable layout name. */
const char *layoutName(RnnLayout layout);

/** Decision plus the evidence it was made on. */
struct LayoutDecision
{
    RnnLayout layout = RnnLayout::kTBH;
    /** Tuned time of one recurrent projection in each layout, us. */
    double tbh_time_us = 0.0;
    double thb_time_us = 0.0;
};

/**
 * Choose the layout for one LSTM stack by timing a single
 * representative recurrent projection in both forms (the paper's
 * one-binary-decision reduction of the NP-hard general problem),
 * folded into the GEMM autotuner: each form's projection is first
 * tuned (so both layouts compete at their best schedule, not at the
 * fixed default) and then the layouts are compared on their tuned
 * MEASURED times.  The tuned schedules land in the registry and the
 * tuner's cache like any other search, so the chosen layout's
 * projection runs tuned from its first real call.  Times are the
 * medians in microseconds, mirroring LayoutDecision's units.
 */
LayoutDecision chooseLayoutTuned(const rnn::LstmSpec &spec,
                                 tune::Autotuner &tuner,
                                 int threads = 0);

} // namespace echo::layout

#endif // ECHO_LAYOUT_LAYOUT_OPTIMIZER_H
