/**
 * @file
 * Gradient-equivalence verification (folded in from the old
 * echo/verify.*): the Echo rewrite replays the exact same ops on the
 * exact same inputs, so gradients must match bit-for-bit on identical
 * input data.  compareFetches reports the maximum absolute difference
 * across two equally long fetch lists, typically one from a rewritten
 * graph and one from its baseline.
 */
#ifndef ECHO_ANALYSIS_NUMERIC_VERIFY_H
#define ECHO_ANALYSIS_NUMERIC_VERIFY_H

#include <vector>

#include "tensor/tensor.h"

namespace echo::analysis {

/** Outcome of comparing two fetch sets. */
struct VerifyResult
{
    double max_abs_diff = 0.0;
    bool shapes_match = true;

    bool identical() const { return shapes_match && max_abs_diff == 0.0; }
};

/** Element-wise comparison of two equally long fetch lists. */
VerifyResult compareFetches(const std::vector<Tensor> &a,
                            const std::vector<Tensor> &b);

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_NUMERIC_VERIFY_H
