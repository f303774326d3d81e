/**
 * @file
 * Beam-search decoding over the NMT step decoder.
 *
 * One beam search decodes ONE source sentence: the caller tiles that
 * sentence's encoder outputs across the decoder's batch rows, and the
 * rows carry the live hypotheses.  Scoring follows GNMT: hypotheses
 * accumulate token log-probabilities and are ranked by
 * score / lp(n) with lp(n) = ((5 + n) / 6)^alpha, n the number of
 * emitted tokens.
 *
 * Every choice is deterministic: log-softmax reduces in fixed index
 * order, and candidate ties break by (higher score, lower parent row,
 * lower token id).  Dead decoder rows are refilled with fixed values,
 * so the whole search is a pure function of (params, enc, width,
 * max_len, alpha).
 */
#ifndef ECHO_SERVE_BEAM_H
#define ECHO_SERVE_BEAM_H

#include <cstdint>
#include <vector>

#include "models/nmt.h"

namespace echo::serve {

/** One finished hypothesis. */
struct BeamHypothesis
{
    /** Emitted target tokens, BOS and EOS excluded. */
    std::vector<int64_t> tokens;
    /** Length-normalized log-probability (the ranking key). */
    float score = 0.0f;
    /** Un-normalized sum of token log-probabilities. */
    float raw_score = 0.0f;
};

/**
 * Decode one sentence with beam width @p width (1 <= width <=
 * dec.batch()).  @p enc must hold the sentence's encoder outputs tiled
 * to all dec.batch() rows.  Emits at most @p max_len tokens.
 */
BeamHypothesis beamSearch(const models::NmtDecoder &dec,
                          const models::ParamStore &params,
                          const models::NmtDecoder::Encoded &enc,
                          int width, int64_t max_len,
                          float alpha = 0.6f);

/**
 * Log-softmax of row @p r of the [rows x V] @p logits into @p out, in
 * double with std::exp and a fixed index order: the scores are
 * user-visible, so beam search and every session payload share this
 * one deterministic reduction.
 */
void logSoftmaxRow(const Tensor &logits, int64_t r, std::vector<double> &out);

/**
 * Tile row @p row of a batched encoder output across all of
 * @p rows rows (the enc argument beamSearch expects).
 */
models::NmtDecoder::Encoded
tileEncoderRow(const models::NmtDecoder::Encoded &enc, int64_t row,
               int64_t rows);

} // namespace echo::serve

#endif // ECHO_SERVE_BEAM_H
