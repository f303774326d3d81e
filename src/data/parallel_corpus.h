/**
 * @file
 * Synthetic parallel corpus (IWSLT15 English-Vietnamese substitute) for
 * the NMT experiments.
 *
 * Source sentences come from the Zipf+structure generator; the target
 * is a deterministic "translation": each source word maps through a
 * fixed bijection into the target vocabulary, and adjacent word pairs
 * are swapped (local reordering).  The mapping is exactly what an
 * attention model is built to learn — word-to-word correspondence with
 * small alignment shifts — so toy training runs converge, perplexity
 * falls, and BLEU on a held-out set rises, reproducing the *dynamics*
 * of the paper's Fig. 12 even though the language is synthetic.
 */
#ifndef ECHO_DATA_PARALLEL_CORPUS_H
#define ECHO_DATA_PARALLEL_CORPUS_H

#include <vector>

#include "core/rng.h"
#include "data/vocab.h"

namespace echo::data {

/** One sentence pair. */
struct SentencePair
{
    std::vector<int64_t> source;
    std::vector<int64_t> target;
};

/** Configuration of a synthetic parallel corpus. */
struct ParallelCorpusConfig
{
    Vocab src_vocab;
    Vocab tgt_vocab;
    int64_t num_pairs = 0;
    int64_t min_len = 4;
    int64_t max_len = 16;
    double zipf_s = 1.05;
    uint64_t seed = 7;
};

/** A generated set of sentence pairs. */
class ParallelCorpus
{
  public:
    static ParallelCorpus generate(const ParallelCorpusConfig &config);

    const std::vector<SentencePair> &pairs() const { return pairs_; }

    /** The reference translation of @p source under the corpus rule
     *  (used to score BLEU against fresh sentences). */
    std::vector<int64_t>
    referenceTranslation(const std::vector<int64_t> &source) const;

  private:
    Vocab src_vocab_;
    Vocab tgt_vocab_;
    std::vector<SentencePair> pairs_;
};

} // namespace echo::data

#endif // ECHO_DATA_PARALLEL_CORPUS_H
