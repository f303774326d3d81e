#include "serve/session.h"

#include <algorithm>
#include <sstream>

#include "core/logging.h"
#include "data/vocab.h"
#include "models/serialize.h"
#include "obs/trace.h"
#include "serve/beam.h"
#include "tensor/pack_cache.h"
#include "tune/tuner.h"

namespace echo::serve {

namespace {

using models::NmtDecoder;
using models::ParamStore;

/**
 * The word-LM payload: top-k next-token ids and log-probabilities of
 * row @p r of @p logits.  One function serves the one-shot (runBatch)
 * and continuous paths so their payload bytes agree by construction.
 */
void
lmTopKPayload(const Tensor &logits, int64_t r, const Request &req,
              std::vector<double> &logp, Response &resp)
{
    logSoftmaxRow(logits, r, logp);
    const int64_t k = std::clamp<int64_t>(
        req.top_k, 1, static_cast<int64_t>(logp.size()));
    std::vector<int64_t> ids(logp.size());
    for (size_t j = 0; j < ids.size(); ++j)
        ids[j] = static_cast<int64_t>(j);
    std::partial_sort(ids.begin(), ids.begin() + k, ids.end(),
                      [&](int64_t a, int64_t c) {
                          const double pa = logp[static_cast<size_t>(a)];
                          const double pc = logp[static_cast<size_t>(c)];
                          return pa != pc ? pa > pc : a < c;
                      });
    for (int64_t j = 0; j < k; ++j) {
        resp.tokens.push_back(ids[static_cast<size_t>(j)]);
        resp.scores.push_back(static_cast<float>(
            logp[static_cast<size_t>(ids[static_cast<size_t>(j)])]));
    }
}

const Tensor &
storedTensor(const ParamStore &params, const std::string &name,
             const std::string &path)
{
    auto it = params.find(name);
    if (it == params.end())
        ECHO_FATAL(path, ": checkpoint is missing tensor '", name, "'");
    return it->second;
}

/** Count consecutive layers named "<prefix>.l<i>.wx" from i = 0. */
int64_t
countLayers(const ParamStore &params, const std::string &prefix)
{
    int64_t n = 0;
    while (params.count(prefix + ".l" + std::to_string(n) + ".wx"))
        ++n;
    return n;
}

models::WordLmConfig
inferWordLmConfig(const ParamStore &params, const std::string &path)
{
    models::WordLmConfig cfg;
    const Tensor &table = storedTensor(params, "embedding.table", path);
    ECHO_REQUIRE(table.shape().ndim() == 2,
                 path, ": embedding.table must be 2-D");
    cfg.vocab = table.shape()[0];
    cfg.hidden = table.shape()[1];
    cfg.layers = countLayers(params, "lstm");
    ECHO_REQUIRE(cfg.layers >= 1,
                 path, ": no lstm.l<i>.wx tensors found");
    return cfg;
}

models::NmtConfig
inferNmtConfig(const ParamStore &params, const std::string &path)
{
    models::NmtConfig cfg;
    const Tensor &src =
        storedTensor(params, "src_embedding.table", path);
    const Tensor &tgt =
        storedTensor(params, "tgt_embedding.table", path);
    ECHO_REQUIRE(src.shape().ndim() == 2 && tgt.shape().ndim() == 2,
                 path, ": embedding tables must be 2-D");
    cfg.src_vocab = src.shape()[0];
    cfg.hidden = src.shape()[1];
    cfg.tgt_vocab = tgt.shape()[0];
    cfg.bidirectional = params.count("enc.bwd.l0.wx") != 0;
    cfg.enc_layers = cfg.bidirectional ? countLayers(params, "enc.fwd")
                                       : countLayers(params, "enc");
    ECHO_REQUIRE(cfg.enc_layers >= 1,
                 path, ": no encoder layer tensors found");
    return cfg;
}

void
validateSessionConfig(const SessionConfig &cfg)
{
    ECHO_REQUIRE(cfg.slots >= 1, "session needs at least one slot");
    ECHO_REQUIRE(!cfg.buckets.empty() &&
                     std::is_sorted(cfg.buckets.begin(),
                                    cfg.buckets.end()) &&
                     cfg.buckets.front() >= 1,
                 "session buckets must be ascending and positive");
    ECHO_REQUIRE(cfg.beam_width >= 1, "beam width must be positive");
}

void
validateBatch(const MicroBatch &mb, const SessionConfig &cfg)
{
    ECHO_REQUIRE(!mb.requests.empty() &&
                     static_cast<int64_t>(mb.requests.size()) <=
                         cfg.slots,
                 "micro-batch holds ", mb.requests.size(),
                 " requests for ", cfg.slots, " slots");
    for (const Request &r : mb.requests)
        ECHO_REQUIRE(!r.tokens.empty() &&
                         static_cast<int64_t>(r.tokens.size()) <=
                             mb.bucket_len,
                     "request ", r.id, " does not fit bucket ",
                     mb.bucket_len);
}

} // namespace

InferenceSession::InferenceSession(SessionConfig config)
    : config_(std::move(config))
{
    validateSessionConfig(config_);
}

int64_t
InferenceSession::bucketIndex(int64_t bucket_len) const
{
    for (size_t i = 0; i < config_.buckets.size(); ++i)
        if (config_.buckets[i] == bucket_len)
            return static_cast<int64_t>(i);
    ECHO_FATAL("micro-batch bucket ", bucket_len,
               " is not a configured bucket");
}

Response
InferenceSession::runDirect(const Request &r)
{
    MicroBatch mb;
    mb.bucket_len = bucketForLength(config_.buckets,
                                    static_cast<int64_t>(r.tokens.size()));
    ECHO_CHECK(mb.bucket_len > 0, "direct request fits no bucket");
    mb.requests.push_back(r);
    std::vector<Response> out;
    runBatch(mb, out);
    return std::move(out.front());
}

std::unique_ptr<InferenceSession>
InferenceSession::fromCheckpoint(const std::string &path,
                                 const SessionConfig &config)
{
    // Load the GEMM tuning cache (and install search-on-miss under
    // ECHO_TUNE=search) before any stepper builds its executors, so
    // the step graphs' per-token GEMMs run tuned from the first
    // request — serving is exactly the workload whose skewed shapes
    // (M = a few in-flight slots, N = vocab) the fixed schedule
    // handles worst.
    tune::ensureGlobalTuner();

    ParamStore params = models::loadParams(path);
    // Register every checkpoint tensor with the persistent pack cache
    // up front: serving weights never change version, so the panels
    // packed on the first decode serve every later request.
    for (const auto &[name, t] : params) {
        (void)name;
        ops::registerPackableTensor(t);
    }
    if (params.count("src_embedding.table")) {
        models::NmtConfig mcfg = inferNmtConfig(params, path);
        return std::make_unique<NmtSession>(mcfg, std::move(params),
                                            config);
    }
    if (params.count("embedding.table")) {
        models::WordLmConfig mcfg = inferWordLmConfig(params, path);
        return std::make_unique<WordLmSession>(mcfg, std::move(params),
                                               config);
    }
    ECHO_FATAL(path, ": checkpoint matches no known model family "
                     "(no embedding.table / src_embedding.table)");
}

// ---------------------------------------------------------------- LM --

WordLmSession::WordLmSession(models::WordLmConfig model_config,
                             models::ParamStore params,
                             SessionConfig config)
    : InferenceSession(std::move(config)), mcfg_(model_config),
      params_(std::move(params)),
      stepper_(mcfg_, config_.slots, config_.mode,
               pass::resolveSpec(pass::PipelineKind::kServeWordLm,
                                 config_.pipeline_spec)),
      lane_state_(stepper_.initialState()),
      lane_req_(static_cast<size_t>(config_.slots)),
      lane_pos_(static_cast<size_t>(config_.slots), 0)
{
}

std::string
WordLmSession::describe() const
{
    std::ostringstream oss;
    oss << "word_lm vocab=" << mcfg_.vocab << " hidden=" << mcfg_.hidden
        << " layers=" << mcfg_.layers << " slots=" << config_.slots;
    return oss.str();
}

void
WordLmSession::runBatch(const MicroBatch &mb, std::vector<Response> &out)
{
    validateBatch(mb, config_);
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("serve", "lm_batch",
                   {{"requests",
                     static_cast<int64_t>(mb.requests.size())},
                    {"bucket", mb.bucket_len}});

    const int64_t b = config_.slots;
    const int64_t n = static_cast<int64_t>(mb.requests.size());
    out.assign(mb.requests.size(), Response{});

    Tensor token(Shape({b}));
    models::WordLmStepper::State state = stepper_.initialState();
    std::vector<double> logp;

    // Fixed step count per bucket: rows whose prefix ends early keep
    // stepping on kPad so the batch shape — and hence every row's
    // arithmetic — is composition-independent.
    for (int64_t t = 0; t < mb.bucket_len; ++t) {
        for (int64_t r = 0; r < b; ++r) {
            const bool live =
                r < n &&
                t < static_cast<int64_t>(mb.requests[r].tokens.size());
            token.at(r) = static_cast<float>(
                live ? mb.requests[r].tokens[static_cast<size_t>(t)]
                     : data::Vocab::kPad);
        }
        const Tensor logits = stepper_.step(params_, token, state);

        // A row's next-token distribution is read at its own last
        // prefix position, wherever the bucket boundary is.
        for (int64_t r = 0; r < n; ++r) {
            const Request &req = mb.requests[static_cast<size_t>(r)];
            if (t != static_cast<int64_t>(req.tokens.size()) - 1)
                continue;
            Response &resp = out[static_cast<size_t>(r)];
            resp.id = req.id;
            resp.ok = true;
            resp.bucket_len = mb.bucket_len;
            resp.batch_requests = n;
            lmTopKPayload(logits, r, req, logp, resp);
        }
    }
}

int
WordLmSession::laneOf(const Request &) const
{
    return 0;
}

void
WordLmSession::splice(int lane, int slot, Request r)
{
    ECHO_CHECK(lane == 0 && slot >= 0 &&
                   slot < static_cast<int>(config_.slots) &&
                   lane_req_[static_cast<size_t>(slot)] == nullptr,
               "bad LM splice target lane ", lane, " slot ", slot);
    // Re-initialize the row's carried state: a fresh occupant must see
    // exactly the all-zero (h, c) a solo decode starts from.
    for (Tensor &h : lane_state_.h)
        for (int64_t j = 0; j < mcfg_.hidden; ++j)
            h.at(slot, j) = 0.0f;
    for (Tensor &c : lane_state_.c)
        for (int64_t j = 0; j < mcfg_.hidden; ++j)
            c.at(slot, j) = 0.0f;
    lane_pos_[static_cast<size_t>(slot)] = 0;
    lane_req_[static_cast<size_t>(slot)] =
        std::make_unique<Request>(std::move(r));
}

void
WordLmSession::stepLane(int lane, std::vector<LaneFinish> &out)
{
    ECHO_CHECK(lane == 0, "word_lm has a single lane");
    const int64_t b = config_.slots;
    int64_t live = 0;
    for (const auto &req : lane_req_)
        live += req != nullptr;
    if (live == 0)
        return;

    obs::Span span;
    if (obs::traceEnabled())
        span.begin("serve", "lm_step", {{"live", live}});

    // Occupied rows feed their own next prefix token, free rows pad —
    // the same composition-independence discipline as runBatch.
    Tensor token(Shape({b}));
    for (int64_t r = 0; r < b; ++r) {
        const auto &req = lane_req_[static_cast<size_t>(r)];
        token.at(r) = static_cast<float>(
            req != nullptr
                ? req->tokens[static_cast<size_t>(
                      lane_pos_[static_cast<size_t>(r)])]
                : data::Vocab::kPad);
    }
    const Tensor logits = stepper_.step(params_, token, lane_state_);

    std::vector<double> logp;
    for (int64_t r = 0; r < b; ++r) {
        auto &req = lane_req_[static_cast<size_t>(r)];
        if (req == nullptr)
            continue;
        const int64_t pos = lane_pos_[static_cast<size_t>(r)]++;
        if (pos != static_cast<int64_t>(req->tokens.size()) - 1)
            continue;
        LaneFinish fin;
        fin.slot = static_cast<int>(r);
        fin.resp.id = req->id;
        fin.resp.ok = true;
        fin.resp.batch_requests = live;
        fin.resp.bucket_len = bucketForLength(
            config_.buckets, static_cast<int64_t>(req->tokens.size()));
        lmTopKPayload(logits, r, *req, logp, fin.resp);
        out.push_back(std::move(fin));
        req.reset();
    }
}

void
WordLmSession::evict(int lane, int slot)
{
    ECHO_CHECK(lane == 0 && slot >= 0 &&
                   slot < static_cast<int>(config_.slots),
               "bad LM evict target lane ", lane, " slot ", slot);
    lane_req_[static_cast<size_t>(slot)].reset();
}

// --------------------------------------------------------------- NMT --

/** Carried decode state of one continuous greedy lane. */
struct NmtSession::GreedyLane
{
    models::NmtDecoder::State state;
    models::NmtDecoder::Encoded enc;
    Tensor src;
    /** Occupants (null = free row) and their accumulated payloads. */
    std::vector<std::unique_ptr<Request>> req;
    std::vector<Response> partial;
    std::vector<double> raw;
    /** src changed since enc was computed (a splice happened). */
    bool enc_dirty = true;
};

NmtSession::NmtSession(models::NmtConfig model_config,
                       models::ParamStore params, SessionConfig config)
    : InferenceSession(std::move(config)), mcfg_(model_config),
      params_(std::move(params)),
      greedy_(config_.buckets.size()), beam_(config_.buckets.size()),
      lanes_(config_.buckets.size())
{
    mcfg_.batch = config_.slots;
    mcfg_.src_len = config_.buckets.back();
}

NmtSession::~NmtSession() = default;

std::string
NmtSession::describe() const
{
    std::ostringstream oss;
    oss << "nmt src_vocab=" << mcfg_.src_vocab
        << " tgt_vocab=" << mcfg_.tgt_vocab
        << " hidden=" << mcfg_.hidden
        << " enc_layers=" << mcfg_.enc_layers
        << (mcfg_.bidirectional ? " bidir" : " unidir")
        << " slots=" << config_.slots
        << " beam=" << config_.beam_width;
    return oss.str();
}

const models::NmtDecoder &
NmtSession::greedyDecoder(int64_t bucket_idx)
{
    auto &slot = greedy_[static_cast<size_t>(bucket_idx)];
    if (!slot)
        slot = std::make_unique<NmtDecoder>(
            mcfg_, config_.slots,
            config_.buckets[static_cast<size_t>(bucket_idx)],
            config_.mode,
            pass::resolveSpec(pass::PipelineKind::kServeNmt,
                              config_.pipeline_spec));
    return *slot;
}

const models::NmtDecoder &
NmtSession::beamDecoder(int64_t bucket_idx)
{
    auto &slot = beam_[static_cast<size_t>(bucket_idx)];
    if (!slot)
        slot = std::make_unique<NmtDecoder>(
            mcfg_, config_.beam_width,
            config_.buckets[static_cast<size_t>(bucket_idx)],
            config_.mode,
            pass::resolveSpec(pass::PipelineKind::kServeNmt,
                              config_.pipeline_spec));
    return *slot;
}

NmtSession::GreedyLane &
NmtSession::lane(int lane_idx)
{
    auto &slot = lanes_[static_cast<size_t>(lane_idx)];
    if (!slot) {
        const models::NmtDecoder &dec = greedyDecoder(lane_idx);
        slot = std::make_unique<GreedyLane>();
        slot->state = dec.initialState();
        slot->src = Tensor::zeros(
            Shape({config_.slots,
                   config_.buckets[static_cast<size_t>(lane_idx)]}));
        slot->req.resize(static_cast<size_t>(config_.slots));
        slot->partial.resize(static_cast<size_t>(config_.slots));
        slot->raw.assign(static_cast<size_t>(config_.slots), 0.0);
    }
    return *slot;
}

int
NmtSession::laneOf(const Request &r) const
{
    // Beam search runs on its own beam-width graph, atomically; a
    // zero-budget greedy decode has no steps to interleave.  Both go
    // direct.  Everything else decodes on its bucket's lane.
    if (r.beam_width > 1 || r.max_new_tokens <= 0)
        return kDirectLane;
    const int64_t bucket = bucketForLength(
        config_.buckets, static_cast<int64_t>(r.tokens.size()));
    ECHO_CHECK(bucket > 0, "admitted request fits no bucket");
    return static_cast<int>(bucketIndex(bucket));
}

void
NmtSession::splice(int lane_idx, int slot, Request r)
{
    ECHO_CHECK(lane_idx >= 0 && lane_idx < numLanes() && slot >= 0 &&
                   slot < static_cast<int>(config_.slots),
               "bad NMT splice target lane ", lane_idx, " slot ", slot);
    GreedyLane &ln = lane(lane_idx);
    ECHO_CHECK(ln.req[static_cast<size_t>(slot)] == nullptr,
               "NMT splice into occupied slot ", slot);

    // The new occupant's source row replaces whatever the previous
    // occupant left; the re-encode below is row-wise, so continuing
    // neighbours' encoder rows keep their exact bytes.
    const int64_t bucket_len =
        config_.buckets[static_cast<size_t>(lane_idx)];
    for (int64_t t = 0; t < bucket_len; ++t)
        ln.src.at(slot, t) = 0.0f;
    for (size_t t = 0; t < r.tokens.size(); ++t)
        ln.src.at(slot, static_cast<int64_t>(t)) =
            static_cast<float>(r.tokens[t]);
    ln.enc_dirty = true;

    // Re-initialize the row's carried state to the solo starting
    // point: BOS token, zero h/c/attn.
    ln.state.token.at(slot) = static_cast<float>(data::Vocab::kBos);
    for (int64_t j = 0; j < mcfg_.hidden; ++j) {
        ln.state.h.at(slot, j) = 0.0f;
        ln.state.c.at(slot, j) = 0.0f;
        ln.state.attn.at(slot, j) = 0.0f;
    }

    Response &resp = ln.partial[static_cast<size_t>(slot)];
    resp = Response{};
    resp.id = r.id;
    resp.ok = true;
    resp.bucket_len = bucket_len;
    ln.raw[static_cast<size_t>(slot)] = 0.0;
    ln.req[static_cast<size_t>(slot)] =
        std::make_unique<Request>(std::move(r));
}

void
NmtSession::stepLane(int lane_idx, std::vector<LaneFinish> &out)
{
    ECHO_CHECK(lane_idx >= 0 && lane_idx < numLanes(),
               "bad NMT lane ", lane_idx);
    GreedyLane &ln = lane(lane_idx);
    const int64_t b = config_.slots;
    int64_t live = 0;
    for (const auto &req : ln.req)
        live += req != nullptr;
    if (live == 0)
        return;

    obs::Span span;
    if (obs::traceEnabled())
        span.begin("serve", "nmt_step",
                   {{"live", live}, {"lane", int64_t(lane_idx)}});

    const models::NmtDecoder &dec = greedyDecoder(lane_idx);
    if (ln.enc_dirty) {
        ln.enc = dec.encode(params_, ln.src);
        ln.enc_dirty = false;
    }

    const Tensor logits = dec.step(params_, ln.state, ln.enc);
    std::vector<double> logp;
    for (int64_t r = 0; r < b; ++r) {
        // Deterministic argmax (first maximum) on every row, live or
        // not, so the fed-back token stream is a pure function of the
        // row — identical to runBatch's decode loop.
        int64_t best = 0;
        float best_score = logits.at(r, 0);
        for (int64_t j = 1; j < mcfg_.tgt_vocab; ++j)
            if (logits.at(r, j) > best_score) {
                best_score = logits.at(r, j);
                best = j;
            }
        ln.state.token.at(r) = static_cast<float>(best);
        auto &req = ln.req[static_cast<size_t>(r)];
        if (req == nullptr)
            continue;
        Response &resp = ln.partial[static_cast<size_t>(r)];
        bool finished = false;
        if (best == data::Vocab::kEos) {
            finished = true;
        } else {
            logSoftmaxRow(logits, r, logp);
            resp.tokens.push_back(best);
            ln.raw[static_cast<size_t>(r)] +=
                logp[static_cast<size_t>(best)];
            finished = static_cast<int64_t>(resp.tokens.size()) >=
                       req->max_new_tokens;
        }
        if (finished) {
            resp.scores = {
                static_cast<float>(ln.raw[static_cast<size_t>(r)])};
            resp.batch_requests = live;
            LaneFinish fin;
            fin.slot = static_cast<int>(r);
            fin.resp = std::move(resp);
            out.push_back(std::move(fin));
            req.reset();
        }
    }
}

void
NmtSession::evict(int lane_idx, int slot)
{
    ECHO_CHECK(lane_idx >= 0 && lane_idx < numLanes() && slot >= 0 &&
                   slot < static_cast<int>(config_.slots),
               "bad NMT evict target lane ", lane_idx, " slot ", slot);
    GreedyLane &ln = lane(lane_idx);
    ln.req[static_cast<size_t>(slot)].reset();
}

void
NmtSession::runBatch(const MicroBatch &mb, std::vector<Response> &out)
{
    validateBatch(mb, config_);
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("serve", "nmt_batch",
                   {{"requests",
                     static_cast<int64_t>(mb.requests.size())},
                    {"bucket", mb.bucket_len}});

    const int64_t b = config_.slots;
    const int64_t n = static_cast<int64_t>(mb.requests.size());
    const int64_t bucket_idx = bucketIndex(mb.bucket_len);
    out.assign(mb.requests.size(), Response{});

    // One padded source tensor and ONE encoder run cover the whole
    // micro-batch; beam requests reuse their encoder row via tiling.
    Tensor src = Tensor::zeros(Shape({b, mb.bucket_len}));
    for (int64_t r = 0; r < n; ++r) {
        const auto &toks = mb.requests[static_cast<size_t>(r)].tokens;
        for (size_t t = 0; t < toks.size(); ++t)
            src.at(r, static_cast<int64_t>(t)) =
                static_cast<float>(toks[t]);
    }
    const models::NmtDecoder &dec = greedyDecoder(bucket_idx);
    const NmtDecoder::Encoded enc = dec.encode(params_, src);

    for (int64_t r = 0; r < n; ++r) {
        Response &resp = out[static_cast<size_t>(r)];
        resp.id = mb.requests[static_cast<size_t>(r)].id;
        resp.ok = true;
        resp.bucket_len = mb.bucket_len;
        resp.batch_requests = n;
    }

    // Greedy rows decode together on the slot-wide step graph.  A
    // zero-budget request never participates: left live it would
    // append one token before its cap check whenever a longer
    // neighbour keeps the loop running, diverging from its solo
    // decode (empty tokens, empty scores).
    std::vector<bool> greedy_row(static_cast<size_t>(b), false);
    int64_t max_steps = 0;
    for (int64_t r = 0; r < n; ++r) {
        const Request &req = mb.requests[static_cast<size_t>(r)];
        if (req.beam_width <= 1 && req.max_new_tokens > 0) {
            greedy_row[static_cast<size_t>(r)] = true;
            max_steps = std::max(max_steps, req.max_new_tokens);
        }
    }
    if (max_steps > 0) {
        NmtDecoder::State state = dec.initialState();
        std::vector<bool> done(static_cast<size_t>(b), true);
        for (int64_t r = 0; r < b; ++r)
            done[static_cast<size_t>(r)] = !greedy_row[static_cast<size_t>(r)];
        std::vector<double> logp;
        std::vector<double> raw(static_cast<size_t>(n), 0.0);
        for (int64_t t = 0; t < max_steps; ++t) {
            const Tensor logits = dec.step(params_, state, enc);
            bool all_done = true;
            for (int64_t r = 0; r < b; ++r) {
                // Deterministic argmax (first maximum) on every row,
                // live or not, so the fed-back token stream is a pure
                // function of the row.
                int64_t best = 0;
                float best_score = logits.at(r, 0);
                for (int64_t j = 1; j < mcfg_.tgt_vocab; ++j)
                    if (logits.at(r, j) > best_score) {
                        best_score = logits.at(r, j);
                        best = j;
                    }
                state.token.at(r) = static_cast<float>(best);
                if (done[static_cast<size_t>(r)])
                    continue;
                const Request &req =
                    mb.requests[static_cast<size_t>(r)];
                Response &resp = out[static_cast<size_t>(r)];
                if (best == data::Vocab::kEos) {
                    done[static_cast<size_t>(r)] = true;
                } else {
                    logSoftmaxRow(logits, r, logp);
                    resp.tokens.push_back(best);
                    raw[static_cast<size_t>(r)] +=
                        logp[static_cast<size_t>(best)];
                    if (static_cast<int64_t>(resp.tokens.size()) >=
                        req.max_new_tokens)
                        done[static_cast<size_t>(r)] = true;
                }
                all_done = all_done && done[static_cast<size_t>(r)];
            }
            if (all_done)
                break;
        }
        for (int64_t r = 0; r < n; ++r)
            if (greedy_row[static_cast<size_t>(r)])
                out[static_cast<size_t>(r)].scores = {
                    static_cast<float>(raw[static_cast<size_t>(r)])};
    }

    // Beam rows decode one request at a time on the beam-wide graph.
    for (int64_t r = 0; r < n; ++r) {
        const Request &req = mb.requests[static_cast<size_t>(r)];
        if (req.beam_width <= 1)
            continue;
        const models::NmtDecoder &bdec = beamDecoder(bucket_idx);
        const NmtDecoder::Encoded tiled =
            tileEncoderRow(enc, r, bdec.batch());
        const int width = std::clamp(req.beam_width, 1,
                                     config_.beam_width);
        const BeamHypothesis hyp =
            beamSearch(bdec, params_, tiled, width, req.max_new_tokens,
                       config_.beam_alpha);
        Response &resp = out[static_cast<size_t>(r)];
        resp.tokens = hyp.tokens;
        resp.scores = {hyp.score};
    }
}

} // namespace echo::serve
