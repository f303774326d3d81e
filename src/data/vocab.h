/**
 * @file
 * Vocabulary conventions shared by the synthetic datasets.
 *
 * Token ids are dense integers; the first few are reserved specials.
 * Real corpora (PTB, Wikitext-2, IWSLT15 en-vi) are unavailable
 * offline, so the data module generates synthetic corpora whose token
 * statistics (vocabulary size, Zipfian frequencies) match the originals
 * — throughput experiments depend only on these shapes, and the
 * learnable structure (see corpus.h) gives training curves their usual
 * behaviour.
 */
#ifndef ECHO_DATA_VOCAB_H
#define ECHO_DATA_VOCAB_H

#include <cstdint>
#include <string>

namespace echo::data {

/** A vocabulary: a size and the reserved special tokens. */
struct Vocab
{
    /** Total size including specials. */
    int64_t size = 0;

    static constexpr int64_t kPad = 0;
    static constexpr int64_t kBos = 1;
    static constexpr int64_t kEos = 2;
    static constexpr int64_t kFirstWord = 3;

    /** Number of non-special word ids. */
    int64_t numWords() const { return size - kFirstWord; }

    /** PTB-scale vocabulary (10k types, Zaremba et al.). */
    static Vocab ptb() { return Vocab{10000}; }
    /** Wikitext-2-scale vocabulary (33k types, Merity et al.). */
    static Vocab wikitext2() { return Vocab{33278}; }
};

} // namespace echo::data

#endif // ECHO_DATA_VOCAB_H
