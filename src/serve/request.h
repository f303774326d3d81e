/**
 * @file
 * Request/response vocabulary of the inference-serving subsystem.
 *
 * A Request is one user-visible unit of work: an NMT source sentence
 * to translate (greedy or beam), or a word-LM prefix to score.  The
 * server assigns ids and timestamps at admission; everything after
 * that — scheduling, decoding, response delivery — is keyed on the id.
 *
 * The determinism contract: a request's Response payload (tokens and
 * scores) is a pure function of the request and the model parameters —
 * byte-identical whether it decoded alone or in a lane row beside
 * other requests, whenever it was spliced, and however many threads
 * executed the graph.  Latency and batch fields are diagnostics and
 * are exempt.
 */
#ifndef ECHO_SERVE_REQUEST_H
#define ECHO_SERVE_REQUEST_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace echo::serve {

/** Why the server refused (or failed) a request. */
enum class RejectReason
{
    kNone,       ///< not rejected
    kQueueFull,  ///< admission control: the bounded queue was full
    kOverloaded, ///< SLO shed: batch-tier admission above the shed line
    kTooLong,    ///< longer than the largest configured length bucket
    kEmpty,      ///< no tokens
    kBadToken,   ///< a token id outside the model's input vocabulary
    kBadModel,   ///< names a model no loaded session serves
    kShutdown,   ///< submitted after stop()
    kCancelled,  ///< cancelled by the client before completion
    kExpired,    ///< deadline budget ran out before completion
};

/** Stable name for logs and CLI output. */
const char *rejectReasonName(RejectReason reason);

/** SLO class of a request (admission and splice priority). */
enum class Tier
{
    kInteractive, ///< admitted up to full queue capacity, spliced first
    kBatch,       ///< shed early under load (kOverloaded)
};

/** One unit of serving work. */
struct Request
{
    /** Assigned by the server at admission. */
    int64_t id = -1;

    /** NMT: source-token ids.  Word LM: prefix-token ids. */
    std::vector<int64_t> tokens;

    /** NMT: generation cap per request. */
    int64_t max_new_tokens = 32;

    /** NMT: beam width; 1 decodes greedily. */
    int beam_width = 1;

    /** Word LM: how many next-token candidates to return. */
    int top_k = 5;

    /** SLO class; batch-tier requests are shed first under load. */
    Tier tier = Tier::kBatch;

    /**
     * Deadline budget in microseconds from admission; 0 disables.  A
     * request whose budget runs out before it completes resolves with
     * RejectReason::kExpired.
     */
    int64_t deadline_us = 0;

    /**
     * Which session kind should serve this ("word_lm" / "nmt"); ""
     * routes to the first loaded session.  Mixed-traffic servers load
     * one session per model family.
     */
    std::string model;

    /** Set by the server at admission (latency accounting). */
    std::chrono::steady_clock::time_point enqueued_at{};
};

/**
 * Smallest of the ascending length @p buckets holding @p len, or -1
 * when none does.  Step graphs are built once per bucket, so a
 * request's bucket is a pure function of its own length.
 */
inline int64_t
bucketForLength(const std::vector<int64_t> &buckets, int64_t len)
{
    for (int64_t b : buckets)
        if (len <= b)
            return b;
    return -1;
}

/** The answer to one Request. */
struct Response
{
    int64_t id = -1;
    bool ok = false;
    RejectReason reject = RejectReason::kNone;

    /** NMT: decoded target tokens.  LM: top-k next-token ids. */
    std::vector<int64_t> tokens;

    /**
     * NMT greedy/beam: one cumulative log-probability score (length-
     * normalized for beam).  LM: per-candidate log-probabilities,
     * aligned with tokens.
     */
    std::vector<float> scores;

    // Diagnostics (not covered by the determinism contract).
    double latency_us = 0.0;     ///< admission -> response
    double wait_us = 0.0;        ///< admission -> splice / direct decode
    int64_t batch_requests = 0;  ///< live rows in its last step (1: direct)
    int64_t bucket_len = 0;      ///< length bucket it was padded to
};

} // namespace echo::serve

#endif // ECHO_SERVE_REQUEST_H
