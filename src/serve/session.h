/**
 * @file
 * Inference sessions: checkpoint-backed decoding for the two paper
 * models.  A session decodes in two ways:
 *
 *  - lanes (splice / stepLane / evict): persistent step-graph
 *    instances whose rows the continuous scheduler fills and recycles
 *    one step at a time — every served greedy / top-k request;
 *  - runDirect: one request alone on row 0 of a fresh state, run to
 *    completion — NMT beam and zero-budget requests, and the
 *    sequential reference the lanes are tested against.
 *
 * A session owns the loaded parameters and the step-decoder graphs —
 * built ONCE per (slot count, length bucket) and reused for every
 * step, which is the serving-side counterpart of the paper's "build
 * the step graph once, run it T times" training structure.
 *
 * Determinism contract (test-enforced on the lanes): every graph in a
 * session has a fixed batch dimension (the slot count), unused rows
 * are padded with fixed values, and all ops are row-wise along the
 * batch axis — so a request's response payload is byte-identical
 * whether it decoded alone through runDirect or spliced into a lane
 * beside seven neighbours, at any thread count.
 *
 * Config inference: fromCheckpoint() reconstructs the model
 * hyperparameters from tensor names and shapes (vocab/hidden/layers,
 * encoder directionality).  Structure flags that leave no trace in the
 * weights (e.g. normalized vs. plain attention scoring) are assumed to
 * be the training defaults.
 */
#ifndef ECHO_SERVE_SESSION_H
#define ECHO_SERVE_SESSION_H

#include <memory>
#include <string>
#include <vector>

#include "models/nmt.h"
#include "models/word_lm.h"
#include "serve/request.h"

namespace echo::serve {

/** Session-wide serving parameters. */
struct SessionConfig
{
    /** Rows per step graph (lane). */
    int64_t slots = 8;

    /** Ascending padded source/prefix lengths. */
    std::vector<int64_t> buckets = {8, 16, 32};

    /** Decoder rows reserved for beam requests; request widths are
     *  clamped to this. */
    int beam_width = 4;

    /** GNMT length-normalization exponent for beam scoring. */
    float beam_alpha = 0.6f;
};

/** One request finishing (payload complete) during a stepLane call. */
struct LaneFinish
{
    int slot = -1;
    Response resp;
};

/** A loaded model ready to decode requests. */
class InferenceSession
{
  public:
    virtual ~InferenceSession() = default;

    InferenceSession(const InferenceSession &) = delete;
    InferenceSession &operator=(const InferenceSession &) = delete;

    const SessionConfig &config() const { return config_; }

    /** Largest admissible request length. */
    int64_t maxLength() const { return config_.buckets.back(); }

    /** "word_lm" or "nmt". */
    virtual const char *kind() const = 0;

    /** Size of the input vocabulary: admissible request tokens lie in
     *  [0, inputVocab()). */
    virtual int64_t inputVocab() const = 0;

    /** One-line model summary for CLI banners. */
    virtual std::string describe() const = 0;

    // ------------------------------------------------------------------
    // Continuous (iteration-level) scheduling API.
    //
    // A lane is one persistent step-graph instance with config().slots
    // rows of carried state.  The scheduler owns slot assignment: it
    // splices a request into a free row (state rows re-initialized
    // there and then), steps the lane once per scheduler pass, and the
    // lane reports rows whose payload completed so their slots can be
    // recycled the same instant.  Because every op is row-wise along
    // the batch axis, a spliced row replays exactly the byte sequence
    // it would produce alone — splice timing and neighbour churn are
    // invisible to payloads (the PR 4 contract, extended).
    // ------------------------------------------------------------------

    /** laneOf() result for requests that must run atomically between
     *  steps (NMT beam, zero-budget decodes). */
    static constexpr int kDirectLane = -1;

    /** Step-graph lanes (word LM: 1; NMT: one per length bucket). */
    virtual int numLanes() const = 0;

    /** Journal pools: every lane, plus a trailing pool for direct
     *  requests when the session has any. */
    virtual int poolCount() const { return numLanes(); }

    /** Lane that should decode @p r, or kDirectLane. */
    virtual int laneOf(const Request &r) const = 0;

    /** Install @p r into row @p slot of @p lane, re-initializing that
     *  row's carried state.  @pre the slot is free. */
    virtual void splice(int lane, int slot, Request r) = 0;

    /** Advance @p lane one step; append a LaneFinish (and free the
     *  row) for every request whose payload completed.  No-op when the
     *  lane has no occupants. */
    virtual void stepLane(int lane, std::vector<LaneFinish> &out) = 0;

    /** Free row @p slot of @p lane without a payload (cancel/expire). */
    virtual void evict(int lane, int slot) = 0;

    /**
     * Decode @p r alone on row 0 of a fresh state, synchronously: the
     * kDirectLane path and the sequential reference the lanes are
     * tested against (it shares no splice/step code with them).  The
     * Response carries the payload and bucket/batch diagnostics;
     * latency is the caller's.  @pre @p r is non-empty, in vocabulary
     * and fits a bucket.  Not thread-safe: one worker drives a session.
     */
    virtual Response runDirect(const Request &r) = 0;

    /**
     * Load @p path and build the right session for the checkpoint's
     * model family (word LM / NMT), inferring hyperparameters from the
     * stored tensors.
     */
    static std::unique_ptr<InferenceSession>
    fromCheckpoint(const std::string &path, const SessionConfig &config);

  protected:
    explicit InferenceSession(SessionConfig config);

    /** Index of @p bucket_len in config().buckets (fatal if absent). */
    int64_t bucketIndex(int64_t bucket_len) const;

    SessionConfig config_;
};

/** Word-LM serving: next-token top-k scoring for a prefix. */
class WordLmSession final : public InferenceSession
{
  public:
    WordLmSession(models::WordLmConfig model_config,
                  models::ParamStore params, SessionConfig config);

    const char *kind() const override { return "word_lm"; }
    int64_t inputVocab() const override { return mcfg_.vocab; }
    std::string describe() const override;
    Response runDirect(const Request &r) override;

    /** The stepper has no length dimension, so ONE lane serves every
     *  prefix length — rows at different positions coexist. */
    int numLanes() const override { return 1; }
    int laneOf(const Request &r) const override;
    void splice(int lane, int slot, Request r) override;
    void stepLane(int lane, std::vector<LaneFinish> &out) override;
    void evict(int lane, int slot) override;

    const models::WordLmConfig &modelConfig() const { return mcfg_; }

  private:
    models::WordLmConfig mcfg_;
    models::ParamStore params_;
    /** One stepper serves every bucket: the step graph has no length
     *  dimension, only the bucket's step COUNT differs. */
    models::WordLmStepper stepper_;

    // Continuous-lane state: one persistent State whose rows belong to
    // whatever request is spliced there; pos_ is the next prefix index
    // each occupied row feeds.
    models::WordLmStepper::State lane_state_;
    std::vector<std::unique_ptr<Request>> lane_req_;
    std::vector<int64_t> lane_pos_;
};

/** NMT serving: greedy lanes and direct beam decoding. */
class NmtSession final : public InferenceSession
{
  public:
    NmtSession(models::NmtConfig model_config, models::ParamStore params,
               SessionConfig config);
    ~NmtSession() override;

    const char *kind() const override { return "nmt"; }
    int64_t inputVocab() const override { return mcfg_.src_vocab; }
    std::string describe() const override;
    Response runDirect(const Request &r) override;

    /** One greedy lane per length bucket; beam and zero-budget
     *  requests run direct (the trailing journal pool). */
    int numLanes() const override
    {
        return static_cast<int>(config_.buckets.size());
    }
    int poolCount() const override { return numLanes() + 1; }
    int laneOf(const Request &r) const override;
    void splice(int lane, int slot, Request r) override;
    void stepLane(int lane, std::vector<LaneFinish> &out) override;
    void evict(int lane, int slot) override;

    const models::NmtConfig &modelConfig() const { return mcfg_; }

  private:
    /** Per-bucket decoders, built on first use. */
    const models::NmtDecoder &greedyDecoder(int64_t bucket_idx);
    const models::NmtDecoder &beamDecoder(int64_t bucket_idx);

    /** Carried decode state of one continuous greedy lane. */
    struct GreedyLane;
    GreedyLane &lane(int lane_idx);

    models::NmtConfig mcfg_;
    models::ParamStore params_;
    std::vector<std::unique_ptr<models::NmtDecoder>> greedy_;
    std::vector<std::unique_ptr<models::NmtDecoder>> beam_;
    std::vector<std::unique_ptr<GreedyLane>> lanes_;
};

} // namespace echo::serve

#endif // ECHO_SERVE_SESSION_H
