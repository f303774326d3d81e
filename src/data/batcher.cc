#include "data/batcher.h"

#include <algorithm>

#include "core/logging.h"

namespace echo::data {

LmBatcher::LmBatcher(const Corpus &corpus, int64_t batch,
                     int64_t seq_len)
    : corpus_(corpus), batch_(batch), seq_len_(seq_len),
      stream_len_(corpus.size() / batch)
{
    ECHO_REQUIRE(stream_len_ > seq_len_,
                 "corpus too small for batch geometry: ",
                 corpus.size(), " tokens, B=", batch,
                 ", T=", seq_len);
}

LmBatch
LmBatcher::next()
{
    LmBatch out;
    out.tokens = Tensor(Shape({batch_, seq_len_}));
    out.labels = Tensor(Shape({batch_ * seq_len_}));
    const auto &toks = corpus_.tokens();
    for (int64_t b = 0; b < batch_; ++b) {
        const int64_t base = b * stream_len_ + cursor_;
        for (int64_t t = 0; t < seq_len_; ++t) {
            out.tokens.at(b, t) =
                static_cast<float>(toks[static_cast<size_t>(
                    base + t)]);
            const int64_t next_pos = base + t + 1;
            const bool has_next =
                next_pos < (b + 1) * stream_len_;
            out.labels.at(b * seq_len_ + t) =
                has_next ? static_cast<float>(
                               toks[static_cast<size_t>(next_pos)])
                         : -1.0f;
        }
    }
    cursor_ += seq_len_;
    if (cursor_ + seq_len_ + 1 > stream_len_)
        cursor_ = 0;
    return out;
}

NmtBatcher::NmtBatcher(const ParallelCorpus &corpus, int64_t batch,
                       int64_t src_len, int64_t tgt_len)
    : corpus_(corpus), batch_(batch), src_len_(src_len),
      tgt_len_(tgt_len)
{
    ECHO_REQUIRE(!corpus.pairs().empty(), "empty parallel corpus");
}

NmtBatch
NmtBatcher::next()
{
    NmtBatch out;
    out.src = Tensor(Shape({batch_, src_len_}),
                     static_cast<float>(Vocab::kPad));
    out.tgt_in = Tensor(Shape({batch_, tgt_len_}),
                        static_cast<float>(Vocab::kPad));
    out.tgt_labels = Tensor(Shape({batch_ * tgt_len_}), -1.0f);

    const auto &pairs = corpus_.pairs();
    for (int64_t b = 0; b < batch_; ++b) {
        const SentencePair &pair = pairs[cursor_];
        cursor_ = (cursor_ + 1) % pairs.size();

        const int64_t slen = std::min<int64_t>(
            src_len_, static_cast<int64_t>(pair.source.size()));
        for (int64_t i = 0; i < slen; ++i)
            out.src.at(b, i) =
                static_cast<float>(pair.source[static_cast<size_t>(i)]);

        // Decoder input: BOS then the target; labels: target then EOS.
        out.tgt_in.at(b, 0) = static_cast<float>(Vocab::kBos);
        const int64_t tlen = std::min<int64_t>(
            tgt_len_ - 1, static_cast<int64_t>(pair.target.size()));
        for (int64_t i = 0; i < tlen; ++i) {
            out.tgt_in.at(b, i + 1) = static_cast<float>(
                pair.target[static_cast<size_t>(i)]);
            out.tgt_labels.at(b * tgt_len_ + i) = static_cast<float>(
                pair.target[static_cast<size_t>(i)]);
        }
        out.tgt_labels.at(b * tgt_len_ + tlen) =
            static_cast<float>(Vocab::kEos);
    }
    return out;
}

} // namespace echo::data
