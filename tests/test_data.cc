/**
 * @file
 * Tests for the synthetic datasets and batchers.
 */
#include <gtest/gtest.h>

#include <map>

#include "data/batcher.h"
#include "data/corpus.h"
#include "data/parallel_corpus.h"

namespace echo::data {
namespace {

CorpusConfig
smallCorpusConfig()
{
    CorpusConfig cfg;
    cfg.vocab = Vocab{100};
    cfg.num_tokens = 20000;
    cfg.seed = 42;
    return cfg;
}

TEST(Corpus, DeterministicInSeed)
{
    const Corpus a = Corpus::generate(smallCorpusConfig());
    const Corpus b = Corpus::generate(smallCorpusConfig());
    ASSERT_EQ(a.size(), b.size());
    for (int64_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.tokens()[static_cast<size_t>(i)],
                  b.tokens()[static_cast<size_t>(i)]);
}

TEST(Corpus, TokensInWordRange)
{
    const Corpus c = Corpus::generate(smallCorpusConfig());
    for (const int64_t tok : c.tokens()) {
        EXPECT_GE(tok, Vocab::kFirstWord);
        EXPECT_LT(tok, c.vocab().size);
    }
}

TEST(Corpus, ZipfSkew)
{
    const Corpus c = Corpus::generate(smallCorpusConfig());
    std::map<int64_t, int64_t> freq;
    for (const int64_t tok : c.tokens())
        ++freq[tok];
    // The most frequent type should dominate the median type.
    int64_t max_count = 0;
    for (const auto &[tok, count] : freq)
        max_count = std::max(max_count, count);
    EXPECT_GT(max_count,
              c.size() / static_cast<int64_t>(freq.size()) * 5);
}

TEST(Corpus, StructureIsLearnable)
{
    // With structure=1.0, the next token is a function of the previous:
    // the conditional entropy is zero and a bigram table predicts
    // perfectly.
    CorpusConfig cfg = smallCorpusConfig();
    cfg.structure = 1.0;
    const Corpus c = Corpus::generate(cfg);
    std::map<int64_t, int64_t> successor;
    int64_t violations = 0;
    for (size_t i = 1; i < c.tokens().size(); ++i) {
        const int64_t prev = c.tokens()[i - 1];
        const int64_t next = c.tokens()[i];
        auto it = successor.find(prev);
        if (it == successor.end())
            successor[prev] = next;
        else if (it->second != next)
            ++violations;
    }
    EXPECT_EQ(violations, 0);
}

TEST(LmBatcher, ShapesAndLabelAlignment)
{
    const Corpus c = Corpus::generate(smallCorpusConfig());
    LmBatcher batcher(c, 4, 10);
    const LmBatch b = batcher.next();
    ASSERT_EQ(b.tokens.shape(), Shape({4, 10}));
    ASSERT_EQ(b.labels.shape(), Shape({40}));
    // Labels are inputs shifted by one within each stream.
    for (int64_t r = 0; r < 4; ++r)
        for (int64_t t = 0; t + 1 < 10; ++t)
            EXPECT_FLOAT_EQ(b.labels.at(r * 10 + t),
                            b.tokens.at(r, t + 1));
}

TEST(LmBatcher, WrapsAround)
{
    const Corpus c = Corpus::generate(smallCorpusConfig());
    LmBatcher batcher(c, 4, 10);
    // Each of the 4 streams holds size/4 tokens; a window of 10 inputs
    // needs one more token for its last label.
    const int64_t per_epoch = (c.size() / 4 - 1) / 10;
    EXPECT_GT(per_epoch, 10);
    const LmBatch first = batcher.next();
    for (int64_t i = 1; i < per_epoch; ++i)
        batcher.next();
    const LmBatch wrapped = batcher.next();
    // After a full epoch, the cursor restarts: same window again.
    for (int64_t i = 0; i < 40; ++i)
        EXPECT_FLOAT_EQ(wrapped.tokens.at(i), first.tokens.at(i));
}

ParallelCorpusConfig
smallParallelConfig()
{
    ParallelCorpusConfig cfg;
    cfg.src_vocab = Vocab{80};
    cfg.tgt_vocab = Vocab{90};
    cfg.num_pairs = 500;
    cfg.min_len = 4;
    cfg.max_len = 9;
    cfg.seed = 5;
    return cfg;
}

TEST(ParallelCorpus, PairLengthsMatchRule)
{
    const ParallelCorpus pc =
        ParallelCorpus::generate(smallParallelConfig());
    ASSERT_EQ(pc.pairs().size(), 500u);
    for (const SentencePair &p : pc.pairs()) {
        EXPECT_GE(static_cast<int64_t>(p.source.size()), 4);
        EXPECT_LE(static_cast<int64_t>(p.source.size()), 9);
        EXPECT_EQ(p.source.size(), p.target.size());
    }
}

TEST(ParallelCorpus, TargetIsDeterministicTranslation)
{
    const ParallelCorpus pc =
        ParallelCorpus::generate(smallParallelConfig());
    for (size_t i = 0; i < 20; ++i) {
        const SentencePair &p = pc.pairs()[i];
        EXPECT_EQ(p.target, pc.referenceTranslation(p.source));
    }
}

TEST(ParallelCorpus, ReorderingSwapsAdjacentPairs)
{
    const ParallelCorpus pc =
        ParallelCorpus::generate(smallParallelConfig());
    // Translate a hand-made sentence and verify the swap pattern by
    // translating each word alone (length-1 sentences do not swap).
    std::vector<int64_t> sent = {Vocab::kFirstWord + 7,
                                 Vocab::kFirstWord + 11,
                                 Vocab::kFirstWord + 3};
    const auto t = pc.referenceTranslation(sent);
    const auto w0 = pc.referenceTranslation({sent[0]})[0];
    const auto w1 = pc.referenceTranslation({sent[1]})[0];
    const auto w2 = pc.referenceTranslation({sent[2]})[0];
    EXPECT_EQ(t[0], w1);
    EXPECT_EQ(t[1], w0);
    EXPECT_EQ(t[2], w2);
}

TEST(NmtBatcher, PaddingAndSpecials)
{
    const ParallelCorpus pc =
        ParallelCorpus::generate(smallParallelConfig());
    NmtBatcher batcher(pc, 8, 12, 12);
    const NmtBatch b = batcher.next();
    ASSERT_EQ(b.src.shape(), Shape({8, 12}));
    ASSERT_EQ(b.tgt_in.shape(), Shape({8, 12}));
    ASSERT_EQ(b.tgt_labels.shape(), Shape({96}));
    for (int64_t r = 0; r < 8; ++r) {
        // Decoder input starts with BOS.
        EXPECT_FLOAT_EQ(b.tgt_in.at(r, 0),
                        static_cast<float>(Vocab::kBos));
        // Labels contain exactly one EOS and -1 afterwards.
        bool seen_eos = false;
        for (int64_t t = 0; t < 12; ++t) {
            const float label = b.tgt_labels.at(r * 12 + t);
            if (seen_eos) {
                EXPECT_FLOAT_EQ(label, -1.0f);
            } else if (label == static_cast<float>(Vocab::kEos)) {
                seen_eos = true;
            }
        }
        EXPECT_TRUE(seen_eos);
    }
}

TEST(NmtBatcher, LabelsAlignWithDecoderInputs)
{
    const ParallelCorpus pc =
        ParallelCorpus::generate(smallParallelConfig());
    NmtBatcher batcher(pc, 4, 12, 12);
    const NmtBatch b = batcher.next();
    // tgt_in[t+1] == labels[t] for non-special positions.
    for (int64_t r = 0; r < 4; ++r)
        for (int64_t t = 0; t + 1 < 12; ++t) {
            const float label = b.tgt_labels.at(r * 12 + t);
            if (label >= static_cast<float>(Vocab::kFirstWord)) {
                EXPECT_FLOAT_EQ(b.tgt_in.at(r, t + 1), label);
            }
        }
}

} // namespace
} // namespace echo::data
