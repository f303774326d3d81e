#include "serve/beam.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/logging.h"
#include "data/vocab.h"

namespace echo::serve {

namespace {

using models::NmtDecoder;

/** GNMT length penalty. */
double
lengthPenalty(size_t len, float alpha)
{
    const double n = static_cast<double>(std::max<size_t>(len, 1));
    return std::pow((5.0 + n) / 6.0, static_cast<double>(alpha));
}

/** In-flight hypothesis living on one decoder row. */
struct LiveBeam
{
    std::vector<int64_t> tokens;
    double raw = 0.0;
};

/** One (parent row, token) expansion. */
struct Candidate
{
    double score = 0.0;
    int parent = 0;
    int64_t token = 0;
};

/** score desc, then parent asc, then token asc — total and stable. */
bool
candidateLess(const Candidate &a, const Candidate &b)
{
    if (a.score != b.score)
        return a.score > b.score;
    if (a.parent != b.parent)
        return a.parent < b.parent;
    return a.token < b.token;
}

BeamHypothesis
finishHypothesis(const LiveBeam &beam, float alpha)
{
    BeamHypothesis hyp;
    hyp.tokens = beam.tokens;
    hyp.raw_score = static_cast<float>(beam.raw);
    hyp.score = static_cast<float>(
        beam.raw / lengthPenalty(beam.tokens.size(), alpha));
    return hyp;
}

/** norm score desc, then shorter, then lexicographically smaller. */
bool
hypothesisLess(const BeamHypothesis &a, const BeamHypothesis &b)
{
    if (a.score != b.score)
        return a.score > b.score;
    if (a.tokens.size() != b.tokens.size())
        return a.tokens.size() < b.tokens.size();
    return a.tokens < b.tokens;
}

} // namespace

void
logSoftmaxRow(const Tensor &logits, int64_t r, std::vector<double> &out)
{
    ECHO_CHECK(logits.shape().ndim() == 2 && r >= 0 &&
                   r < logits.shape()[0],
               "logSoftmaxRow: row ", r, " of ",
               logits.shape().toString());
    const int64_t v = logits.shape()[1];
    const float *row = logits.data() + r * v;
    out.resize(static_cast<size_t>(v));
    double mx = row[0];
    for (int64_t j = 1; j < v; ++j)
        mx = std::max(mx, static_cast<double>(row[j]));
    double sum = 0.0;
    for (int64_t j = 0; j < v; ++j)
        sum += std::exp(static_cast<double>(row[j]) - mx);
    const double log_z = mx + std::log(sum);
    for (int64_t j = 0; j < v; ++j)
        out[static_cast<size_t>(j)] = static_cast<double>(row[j]) - log_z;
}

models::NmtDecoder::Encoded
tileEncoderRow(const models::NmtDecoder::Encoded &enc, int64_t row,
               int64_t rows)
{
    const Shape &s = enc.hs.shape();
    ECHO_REQUIRE(s.ndim() == 3 && row >= 0 && row < s[0],
                 "tileEncoderRow: bad row");
    const int64_t ts = s[1], h = s[2];
    NmtDecoder::Encoded out;
    out.hs = Tensor(Shape({rows, ts, h}));
    out.keys = Tensor(Shape({rows, ts, h}));
    const int64_t stride = ts * h;
    const float *hs_src = enc.hs.data() + row * stride;
    const float *keys_src = enc.keys.data() + row * stride;
    for (int64_t k = 0; k < rows; ++k) {
        std::copy(hs_src, hs_src + stride, out.hs.data() + k * stride);
        std::copy(keys_src, keys_src + stride,
                  out.keys.data() + k * stride);
    }
    return out;
}

BeamHypothesis
beamSearch(const models::NmtDecoder &dec,
           const models::ParamStore &params,
           const models::NmtDecoder::Encoded &enc, int width,
           int64_t max_len, float alpha)
{
    const int64_t rows = dec.batch();
    const int64_t hidden = dec.config().hidden;
    ECHO_REQUIRE(width >= 1 && width <= rows,
                 "beam width must be in [1, decoder batch]");
    ECHO_REQUIRE(enc.hs.shape()[0] == rows,
                 "encoder outputs must be tiled to the decoder batch");

    NmtDecoder::State state = dec.initialState();
    std::vector<LiveBeam> active(1); // row 0 carries the single BOS hyp
    std::vector<BeamHypothesis> finished;
    std::vector<double> logp;

    for (int64_t t = 0; t < max_len && !active.empty(); ++t) {
        const Tensor logits = dec.step(params, state, enc);

        // Expand every live row over the vocabulary and keep the top
        // `width` candidates overall.
        std::vector<Candidate> cands;
        cands.reserve(active.size() *
                      static_cast<size_t>(logits.shape()[1]));
        for (size_t i = 0; i < active.size(); ++i) {
            logSoftmaxRow(logits, static_cast<int64_t>(i), logp);
            for (size_t v = 0; v < logp.size(); ++v)
                cands.push_back({active[i].raw + logp[v],
                                 static_cast<int>(i),
                                 static_cast<int64_t>(v)});
        }
        const size_t keep =
            std::min(static_cast<size_t>(width), cands.size());
        std::partial_sort(cands.begin(),
                          cands.begin() + static_cast<ptrdiff_t>(keep),
                          cands.end(), candidateLess);
        cands.resize(keep);

        // Split survivors into finished (EOS) and next-step beams,
        // gathering each survivor's decoder state from its parent row.
        NmtDecoder::State next;
        next.token = Tensor::zeros(Shape({rows}));
        next.h = Tensor::zeros(Shape({rows, hidden}));
        next.c = Tensor::zeros(Shape({rows, hidden}));
        next.attn = Tensor::zeros(Shape({rows, hidden}));
        std::vector<LiveBeam> next_active;
        for (const Candidate &c : cands) {
            LiveBeam child;
            child.tokens = active[static_cast<size_t>(c.parent)].tokens;
            child.raw = c.score;
            if (c.token == data::Vocab::kEos) {
                finished.push_back(finishHypothesis(child, alpha));
                continue;
            }
            child.tokens.push_back(c.token);
            const int64_t row =
                static_cast<int64_t>(next_active.size());
            next.token.at(row) = static_cast<float>(c.token);
            for (int64_t j = 0; j < hidden; ++j) {
                next.h.at(row, j) = state.h.at(c.parent, j);
                next.c.at(row, j) = state.c.at(c.parent, j);
                next.attn.at(row, j) = state.attn.at(c.parent, j);
            }
            next_active.push_back(std::move(child));
        }
        // Dead rows keep deterministic filler (kPad token, zero state),
        // so the step outputs — and hence the whole search — stay a
        // pure function of the inputs.
        state = std::move(next);
        active = std::move(next_active);
    }

    // Out of steps: surviving beams finish without EOS.
    for (const LiveBeam &beam : active)
        finished.push_back(finishHypothesis(beam, alpha));

    ECHO_CHECK(!finished.empty(), "beam search produced no hypothesis");
    return *std::min_element(finished.begin(), finished.end(),
                             hypothesisLess);
}

} // namespace echo::serve
