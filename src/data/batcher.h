/**
 * @file
 * Batch construction.
 *
 * Language modeling uses the standard continuous-batching scheme
 * (Zaremba et al.): the token stream is split into B parallel streams
 * and sliced into [B x T] windows whose labels are the inputs shifted
 * by one.  NMT batches pad sentence pairs to fixed lengths; padded
 * label positions carry -1 so the loss ignores them.
 */
#ifndef ECHO_DATA_BATCHER_H
#define ECHO_DATA_BATCHER_H

#include <vector>

#include "data/corpus.h"
#include "data/parallel_corpus.h"
#include "tensor/tensor.h"

namespace echo::data {

/** One language-modeling batch: inputs and shifted labels. */
struct LmBatch
{
    Tensor tokens; ///< [B x T]
    Tensor labels; ///< [B*T] (flattened, -1 = ignore)
};

/** Iterates [B x T] windows over a corpus, wrapping at the end. */
class LmBatcher
{
  public:
    LmBatcher(const Corpus &corpus, int64_t batch, int64_t seq_len);

    /** Next batch (deterministic sequence; wraps around). */
    LmBatch next();

  private:
    const Corpus &corpus_;
    int64_t batch_;
    int64_t seq_len_;
    int64_t stream_len_;
    int64_t cursor_ = 0;
};

/** One NMT batch. */
struct NmtBatch
{
    Tensor src;        ///< [B x Ts] source ids (kPad padded)
    Tensor tgt_in;     ///< [B x Tt] decoder inputs (BOS-shifted)
    Tensor tgt_labels; ///< [B*Tt] labels (-1 on padding)
};

/** Batches sentence pairs with padding to fixed lengths. */
class NmtBatcher
{
  public:
    NmtBatcher(const ParallelCorpus &corpus, int64_t batch,
               int64_t src_len, int64_t tgt_len);

    NmtBatch next();

  private:
    const ParallelCorpus &corpus_;
    int64_t batch_;
    int64_t src_len_;
    int64_t tgt_len_;
    size_t cursor_ = 0;
};

} // namespace echo::data

#endif // ECHO_DATA_BATCHER_H
