/**
 * @file
 * Tests for the inference-serving subsystem: request queue admission,
 * length buckets, session decoding, the server round trip, the
 * batch-composition / thread-count determinism contract, the
 * continuous scheduler, and the slot-recycling audit.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "analysis/hazards.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "models/nmt.h"
#include "models/serialize.h"
#include "models/word_lm.h"
#include "serve/beam.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "serve/session.h"

namespace echo {
namespace {

using namespace echo::serve;

Request
makeRequest(std::vector<int64_t> tokens, int64_t id = -1)
{
    Request r;
    r.id = id;
    r.tokens = std::move(tokens);
    return r;
}

// ------------------------------------------------------------- queue --

TEST(RequestQueue, FifoWithinCapacity)
{
    RequestQueue q(3);
    EXPECT_EQ(q.tryPush(makeRequest({1}, 10)), RejectReason::kNone);
    EXPECT_EQ(q.tryPush(makeRequest({2}, 11)), RejectReason::kNone);
    EXPECT_EQ(q.size(), 2u);

    Request out;
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(out.id, 10);
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(out.id, 11);
    EXPECT_FALSE(q.tryPop(out));
}

TEST(RequestQueue, RejectsWhenFull)
{
    RequestQueue q(2);
    EXPECT_EQ(q.tryPush(makeRequest({1})), RejectReason::kNone);
    EXPECT_EQ(q.tryPush(makeRequest({2})), RejectReason::kNone);
    EXPECT_EQ(q.tryPush(makeRequest({3})), RejectReason::kQueueFull);
    // Popping frees a slot again.
    Request out;
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(q.tryPush(makeRequest({4})), RejectReason::kNone);
}

TEST(RequestQueue, CloseRejectsNewButDrainsAdmitted)
{
    RequestQueue q(4);
    EXPECT_EQ(q.tryPush(makeRequest({1}, 7)), RejectReason::kNone);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.tryPush(makeRequest({2})), RejectReason::kShutdown);

    Request out;
    EXPECT_TRUE(q.pop(out)); // admitted before close: still served
    EXPECT_EQ(out.id, 7);
    EXPECT_FALSE(q.pop(out)); // closed and drained
    q.close();                // idempotent
}

TEST(RequestQueue, PopBlocksUntilPush)
{
    RequestQueue q(4);
    std::promise<int64_t> got;
    std::thread consumer([&] {
        Request out;
        ASSERT_TRUE(q.pop(out));
        got.set_value(out.id);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(q.tryPush(makeRequest({1}, 99)), RejectReason::kNone);
    EXPECT_EQ(got.get_future().get(), 99);
    consumer.join();
}

TEST(RequestQueue, RejectReasonNamesAreStable)
{
    EXPECT_STREQ(rejectReasonName(RejectReason::kQueueFull),
                 "queue-full");
    EXPECT_STREQ(rejectReasonName(RejectReason::kTooLong), "too-long");
    EXPECT_STREQ(rejectReasonName(RejectReason::kShutdown), "shutdown");
}

// ----------------------------------------------------------- buckets --

TEST(Batcher, BucketForLengthPicksSmallestFit)
{
    const std::vector<int64_t> buckets{8, 16, 32};
    EXPECT_EQ(bucketForLength(buckets, 1), 8);
    EXPECT_EQ(bucketForLength(buckets, 8), 8);
    EXPECT_EQ(bucketForLength(buckets, 9), 16);
    EXPECT_EQ(bucketForLength(buckets, 32), 32);
    EXPECT_EQ(bucketForLength(buckets, 33), -1);
}

// ----------------------------------------------------------- session --

models::WordLmConfig
tinyLmConfig()
{
    models::WordLmConfig cfg;
    cfg.vocab = 50;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 6;
    return cfg;
}

models::NmtConfig
tinyNmtConfig()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 40;
    cfg.tgt_vocab = 45;
    cfg.hidden = 8;
    cfg.enc_layers = 1;
    cfg.batch = 3;
    cfg.src_len = 8;
    cfg.tgt_len = 8;
    return cfg;
}

models::ParamStore
tinyLmParams()
{
    models::WordLmModel model(tinyLmConfig());
    Rng rng(21);
    return model.initialParams(rng);
}

models::ParamStore
tinyNmtParams()
{
    models::NmtModel model(tinyNmtConfig());
    Rng rng(22);
    return model.initialParams(rng);
}

SessionConfig
smallSessionConfig()
{
    SessionConfig cfg;
    cfg.slots = 8;
    cfg.buckets = {8};
    cfg.beam_width = 3;
    return cfg;
}

TEST(Session, FromCheckpointInfersWordLm)
{
    const std::string path =
        ::testing::TempDir() + "echo_serve_lm.ckpt";
    models::saveParams(tinyLmParams(), path);

    auto session =
        InferenceSession::fromCheckpoint(path, smallSessionConfig());
    EXPECT_STREQ(session->kind(), "word_lm");
    EXPECT_EQ(session->maxLength(), 8);
    EXPECT_NE(session->describe().find("vocab=50"), std::string::npos);

    const auto *lm = dynamic_cast<WordLmSession *>(session.get());
    ASSERT_NE(lm, nullptr);
    EXPECT_EQ(lm->modelConfig().hidden, 8);
    EXPECT_EQ(lm->modelConfig().layers, 2);
}

TEST(Session, FromCheckpointInfersNmt)
{
    const std::string path =
        ::testing::TempDir() + "echo_serve_nmt.ckpt";
    models::saveParams(tinyNmtParams(), path);

    auto session =
        InferenceSession::fromCheckpoint(path, smallSessionConfig());
    EXPECT_STREQ(session->kind(), "nmt");

    const auto *nmt = dynamic_cast<NmtSession *>(session.get());
    ASSERT_NE(nmt, nullptr);
    EXPECT_EQ(nmt->modelConfig().src_vocab, 40);
    EXPECT_EQ(nmt->modelConfig().tgt_vocab, 45);
    EXPECT_EQ(nmt->modelConfig().enc_layers, 1);
    EXPECT_TRUE(nmt->modelConfig().bidirectional);
}

TEST(Session, WordLmTopKIsSortedAndInVocab)
{
    WordLmSession session(tinyLmConfig(), tinyLmParams(),
                          smallSessionConfig());
    Request r = makeRequest({7, 12, 3}, 0);
    r.top_k = 5;

    const Response out = session.runDirect(r);
    EXPECT_TRUE(out.ok);
    ASSERT_EQ(out.tokens.size(), 5u);
    ASSERT_EQ(out.scores.size(), 5u);
    for (size_t i = 0; i < out.tokens.size(); ++i) {
        EXPECT_GE(out.tokens[i], 0);
        EXPECT_LT(out.tokens[i], 50);
        EXPECT_LE(out.scores[i], 0.0f); // log-probabilities
        if (i > 0) {
            EXPECT_GE(out.scores[i - 1], out.scores[i]);
        }
    }
}

/**
 * Splice rows[i] into row i of @p lane, step the lane until every row
 * has finished, and return each row's Response, indexed by slot.
 */
std::vector<Response>
decodeFullLane(InferenceSession &session, int lane,
               const std::vector<Request> &rows)
{
    for (size_t i = 0; i < rows.size(); ++i)
        session.splice(lane, static_cast<int>(i), rows[i]);
    std::vector<LaneFinish> fins;
    for (int step = 0; step < 64 && fins.size() < rows.size(); ++step)
        session.stepLane(lane, fins);
    EXPECT_EQ(fins.size(), rows.size());
    std::vector<Response> out(rows.size());
    for (LaneFinish &f : fins)
        out[static_cast<size_t>(f.slot)] = std::move(f.resp);
    return out;
}

/**
 * The determinism contract, on the lanes that serve traffic: a
 * request's payload is byte-identical whether it decoded alone
 * (runDirect) or spliced into a full lane beside neighbours of varied
 * lengths and widths, at any thread count.  The target rides in row 5.
 */
TEST(Session, WordLmPayloadIndependentOfBatchAndThreads)
{
    WordLmSession session(tinyLmConfig(), tinyLmParams(),
                          smallSessionConfig());
    Request target = makeRequest({9, 4, 31, 6}, 100);
    target.top_k = 4;
    std::vector<Request> rows;
    for (int64_t i = 0; i < smallSessionConfig().slots; ++i) {
        Request r = makeRequest(
            std::vector<int64_t>(static_cast<size_t>(1 + i % 7), 10 + i),
            i);
        r.top_k = 3;
        rows.push_back(i == 5 ? target : r);
    }

    const Response ref = session.runDirect(target);
    ASSERT_TRUE(ref.ok);
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        const std::vector<Response> out = decodeFullLane(session, 0, rows);
        EXPECT_EQ(out[5].id, 100);
        EXPECT_EQ(out[5].tokens, ref.tokens) << "threads=" << threads;
        EXPECT_EQ(out[5].scores, ref.scores) << "threads=" << threads;
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

/** The NMT half: a greedy target in row 2 of a full bucket lane whose
 *  neighbours vary in source and budget.  Beam requests never ride a
 *  lane; their direct decode must be thread-count independent too. */
TEST(Session, NmtPayloadIndependentOfBatchAndThreads)
{
    NmtSession session(tinyNmtConfig(), tinyNmtParams(),
                       smallSessionConfig());
    const std::vector<int64_t> sentence{5, 9, 13, 4};
    Request target = makeRequest(sentence, 100);
    target.max_new_tokens = 6;
    Request beam = makeRequest(sentence, 101);
    beam.max_new_tokens = 6;
    beam.beam_width = 3;
    std::vector<Request> rows;
    for (int64_t i = 0; i < smallSessionConfig().slots; ++i) {
        Request r = makeRequest(
            std::vector<int64_t>(static_cast<size_t>(2 + i % 5), 11 + i),
            i);
        r.max_new_tokens = 1 + i % 6;
        rows.push_back(i == 2 ? target : r);
    }
    ASSERT_EQ(session.laneOf(target), 0);
    ASSERT_EQ(session.laneOf(beam), InferenceSession::kDirectLane);

    const Response ref = session.runDirect(target);
    const Response beam_ref = session.runDirect(beam);
    ASSERT_TRUE(ref.ok);
    ASSERT_TRUE(beam_ref.ok);
    ASSERT_FALSE(ref.tokens.empty());
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        const std::vector<Response> out = decodeFullLane(session, 0, rows);
        EXPECT_EQ(out[2].id, 100);
        EXPECT_EQ(out[2].tokens, ref.tokens) << "threads=" << threads;
        EXPECT_EQ(out[2].scores, ref.scores) << "threads=" << threads;
        const Response b = session.runDirect(beam);
        EXPECT_EQ(b.tokens, beam_ref.tokens) << "threads=" << threads;
        EXPECT_EQ(b.scores, beam_ref.scores) << "threads=" << threads;
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

TEST(Session, BeamWidthOneMatchesGreedyTokens)
{
    const models::NmtConfig mcfg = tinyNmtConfig();
    const models::ParamStore params = tinyNmtParams();
    SessionConfig scfg = smallSessionConfig();
    NmtSession session(mcfg, params, scfg);

    // Greedy decode through the session.
    Request r = makeRequest({3, 17, 8}, 0);
    r.max_new_tokens = 6;
    const Response out = session.runDirect(r);

    // Width-1 beam search on a standalone single-row decoder over the
    // same weights must pick the same token at every step.
    models::NmtConfig dcfg = mcfg;
    dcfg.batch = 1;
    dcfg.src_len = 8;
    models::NmtDecoder dec(dcfg, 1, 8);
    Tensor src = Tensor::zeros(Shape({1, 8}));
    for (size_t t = 0; t < r.tokens.size(); ++t)
        src.at(0, static_cast<int64_t>(t)) =
            static_cast<float>(r.tokens[t]);
    const models::NmtDecoder::Encoded enc = dec.encode(params, src);
    const BeamHypothesis hyp =
        beamSearch(dec, params, enc, 1, r.max_new_tokens);
    EXPECT_EQ(hyp.tokens, out.tokens);
}

// ------------------------------------------------------------ server --

std::unique_ptr<InferenceSession>
makeLmSession()
{
    return std::make_unique<WordLmSession>(
        tinyLmConfig(), tinyLmParams(), smallSessionConfig());
}

TEST(Server, RoundTripsRequests)
{
    Server server(makeLmSession(), ServerConfig{});

    std::vector<std::future<Response>> futures;
    for (int64_t i = 0; i < 6; ++i) {
        Request r = makeRequest({3 + i, 7, 11});
        r.top_k = 3;
        futures.push_back(server.submit(std::move(r)));
    }
    for (auto &f : futures) {
        const Response resp = f.get();
        EXPECT_TRUE(resp.ok);
        EXPECT_EQ(resp.reject, RejectReason::kNone);
        EXPECT_EQ(resp.tokens.size(), 3u);
        EXPECT_GE(resp.latency_us, 0.0);
        EXPECT_GE(resp.batch_requests, 1);
        EXPECT_EQ(resp.bucket_len, 8);
    }
    server.stop();

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 6);
    EXPECT_EQ(stats.completed, 6);
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_GE(stats.batches, 1);
    EXPECT_GT(stats.mean_batch_requests, 0.0);
    EXPECT_GT(stats.latency_p50_us, 0.0);
    EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
}

TEST(Server, RejectsInvalidAndLateRequests)
{
    Server server(makeLmSession(), ServerConfig{});

    Response empty = server.submit(makeRequest({})).get();
    EXPECT_FALSE(empty.ok);
    EXPECT_EQ(empty.reject, RejectReason::kEmpty);

    Response too_long =
        server.submit(makeRequest(std::vector<int64_t>(9, 5))).get();
    EXPECT_FALSE(too_long.ok);
    EXPECT_EQ(too_long.reject, RejectReason::kTooLong);

    server.stop();
    Response late = server.submit(makeRequest({1, 2})).get();
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.reject, RejectReason::kShutdown);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 0);
    EXPECT_EQ(stats.rejected, 3);
}

/**
 * A token outside the model's input vocabulary (LM vocab 50, NMT source
 * vocab 40), negatives included, fails only its own request at
 * admission: it never reaches an embedding lookup, and the valid
 * requests around it are served.
 */
TEST(Server, RejectsOutOfVocabTokensAndServesTheRest)
{
    std::vector<std::unique_ptr<InferenceSession>> sessions;
    sessions.push_back(std::make_unique<WordLmSession>(
        tinyLmConfig(), tinyLmParams(), smallSessionConfig()));
    sessions.push_back(std::make_unique<NmtSession>(
        tinyNmtConfig(), tinyNmtParams(), smallSessionConfig()));
    Server server(std::move(sessions), ServerConfig{});

    struct Case
    {
        const char *model;
        std::vector<int64_t> tokens;
        bool valid;
    };
    const std::vector<Case> cases = {
        {"word_lm", {3, 4, 5}, true},   {"word_lm", {3, 4, 50}, false},
        {"word_lm", {3, 49}, true},     {"nmt", {5, 9, 13}, true},
        {"nmt", {5, 40, 13}, false},    {"nmt", {-1, 9}, false},
        {"word_lm", {-7}, false},       {"nmt", {39, 4}, true},
    };
    std::vector<std::future<Response>> futures;
    for (const Case &c : cases) {
        Request r = makeRequest(c.tokens);
        r.model = c.model;
        r.max_new_tokens = 4;
        futures.push_back(server.submit(std::move(r)));
    }
    for (size_t i = 0; i < cases.size(); ++i) {
        const Response resp = futures[i].get();
        if (cases[i].valid) {
            EXPECT_TRUE(resp.ok) << "case " << i;
            EXPECT_EQ(resp.reject, RejectReason::kNone) << "case " << i;
        } else {
            EXPECT_FALSE(resp.ok) << "case " << i;
            EXPECT_EQ(resp.reject, RejectReason::kBadToken) << "case " << i;
        }
    }
    server.stop();
    EXPECT_EQ(server.stats().rejected, 4);
    EXPECT_EQ(server.stats().completed, 4);
}

TEST(RequestQueue, BatchTierShedsAtTheAdmitLine)
{
    // Capacity 4 with a shed line of 2: batch-tier requests reject
    // kOverloaded once two requests are queued, interactive traffic
    // is admitted up to full capacity.
    RequestQueue q(4, 2);
    EXPECT_EQ(q.batchCapacity(), 2u);

    auto tiered = [](int64_t id, Tier tier) {
        Request r = makeRequest({1, 2}, id);
        r.tier = tier;
        return r;
    };
    EXPECT_EQ(q.tryPush(tiered(0, Tier::kBatch)), RejectReason::kNone);
    EXPECT_EQ(q.tryPush(tiered(1, Tier::kBatch)), RejectReason::kNone);
    EXPECT_EQ(q.tryPush(tiered(2, Tier::kBatch)),
              RejectReason::kOverloaded);
    EXPECT_EQ(q.tryPush(tiered(3, Tier::kInteractive)),
              RejectReason::kNone);
    EXPECT_EQ(q.tryPush(tiered(4, Tier::kInteractive)),
              RejectReason::kNone);
    EXPECT_EQ(q.tryPush(tiered(5, Tier::kInteractive)),
              RejectReason::kQueueFull);

    // Draining below the shed line re-admits batch traffic.
    Request out;
    ASSERT_TRUE(q.tryPop(out));
    ASSERT_TRUE(q.tryPop(out));
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(q.tryPush(tiered(6, Tier::kBatch)), RejectReason::kNone);
}

TEST(RequestQueue, TierAndNewRejectReasonNamesAreStable)
{
    EXPECT_STREQ(rejectReasonName(RejectReason::kOverloaded),
                 "overloaded");
    EXPECT_STREQ(rejectReasonName(RejectReason::kBadModel),
                 "bad-model");
    EXPECT_STREQ(rejectReasonName(RejectReason::kBadToken), "bad-token");
    EXPECT_STREQ(rejectReasonName(RejectReason::kCancelled),
                 "cancelled");
    EXPECT_STREQ(rejectReasonName(RejectReason::kExpired),
                 "deadline-expired");
}

// ------------------------------------------- slot-recycling audit --

analysis::SlotLease
lease(int64_t id, int64_t pool, int slot, int64_t acquired,
      int64_t released, int reinit = 1,
      analysis::LeaseStatus status = analysis::LeaseStatus::kServed)
{
    analysis::SlotLease l;
    l.request_id = id;
    l.pool = pool;
    l.slot = slot;
    l.acquired = acquired;
    l.released = released;
    l.reinit = reinit;
    l.status = status;
    return l;
}

TEST(SlotRecycling, CleanRecycledJournalPasses)
{
    // Slot 0 serves three requests back-to-back (recycling), slot 1
    // hosts an overlapping-in-time neighbour, one request expires.
    std::vector<analysis::SlotLease> journal;
    journal.push_back(lease(0, 0, 0, 0, 3));
    journal.push_back(lease(1, 0, 1, 0, 5));
    journal.push_back(lease(2, 0, 0, 3, 4, 1,
                            analysis::LeaseStatus::kExpired));
    journal.push_back(lease(3, 0, 0, 4, 9));
    // Pools from a journal file can be any int64: these two must not
    // collide (a pool * num_slots + slot key maps both to one slot).
    const int64_t top = std::numeric_limits<int64_t>::max();
    journal.push_back(lease(7, top, 2, 5, 6));
    journal.push_back(lease(8, top - (int64_t{1} << 62), 2, 5, 6));
    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, 4);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(SlotRecycling, OverlappingLeasesAreSlotAliasing)
{
    std::vector<analysis::SlotLease> journal;
    journal.push_back(lease(0, 0, 0, 0, 3));
    journal.push_back(lease(1, 0, 0, 2, 5)); // acquired before 0 left
    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, 4);
    EXPECT_FALSE(report.ok());
    bool saw_alias = false;
    for (const analysis::Diagnostic &d : report.diagnostics)
        saw_alias |= d.check == analysis::Check::kSlotAliasing;
    EXPECT_TRUE(saw_alias) << report.toString();
}

TEST(WorkspaceAliasing, DetectsOverlapAndOutOfRange)
{
    std::vector<analysis::SlotLease> journal;
    // Requests 1 and 2 both hold (pool 0, slot 3) over pass 5.
    journal.push_back(lease(1, 0, 3, 5, 6));
    journal.push_back(lease(2, 0, 3, 5, 6));
    // Request 3 maps outside the slot range.
    journal.push_back(lease(3, 0, 9, 6, 7));

    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, 8);
    EXPECT_FALSE(report.ok());
    bool saw_alias = false, saw_range = false;
    for (const analysis::Diagnostic &d : report.diagnostics) {
        saw_alias |= d.check == analysis::Check::kSlotAliasing;
        saw_range |= d.check == analysis::Check::kSlotOutOfRange;
    }
    EXPECT_TRUE(saw_alias) << report.toString();
    EXPECT_TRUE(saw_range) << report.toString();
}

TEST(WorkspaceAliasing, DisjointPoolsAndTimesAreClean)
{
    std::vector<analysis::SlotLease> journal;
    journal.push_back(lease(1, 0, 3, 5, 6)); // same slot, different pool
    journal.push_back(lease(2, 1, 3, 5, 6));
    journal.push_back(lease(3, 0, 3, 6, 7)); // same slot, later lease
    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, 8);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(SlotRecycling, MissingReinitIsAStateLeak)
{
    std::vector<analysis::SlotLease> journal;
    journal.push_back(lease(0, 0, 0, 0, 3));
    journal.push_back(lease(1, 0, 0, 3, 5, /*reinit=*/0));
    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, 4);
    EXPECT_FALSE(report.ok());
    bool saw_leak = false;
    for (const analysis::Diagnostic &d : report.diagnostics)
        saw_leak |= d.check == analysis::Check::kSlotStateLeak;
    EXPECT_TRUE(saw_leak) << report.toString();
}

TEST(SlotRecycling, DoubleTerminationAndEmptyLeaseAreViolations)
{
    std::vector<analysis::SlotLease> journal;
    // Request 7 terminates twice (two leases), request 8's lease is
    // empty (acquired == released).
    journal.push_back(lease(7, 0, 0, 0, 2));
    journal.push_back(lease(7, 0, 1, 3, 4));
    journal.push_back(lease(8, 0, 2, 5, 5));
    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, 4);
    EXPECT_FALSE(report.ok());
    int lifecycle = 0;
    for (const analysis::Diagnostic &d : report.diagnostics)
        lifecycle += d.check == analysis::Check::kLifecycleViolation;
    EXPECT_GE(lifecycle, 2) << report.toString();
}

// ----------------------------------------- continuous scheduler --

std::unique_ptr<InferenceSession>
makeNmtSession()
{
    return std::make_unique<NmtSession>(
        tinyNmtConfig(), tinyNmtParams(), smallSessionConfig());
}

/** The differential workload: varied prefixes and top-k widths. */
std::vector<Request>
differentialWorkload()
{
    std::vector<Request> reqs;
    const std::vector<std::vector<int64_t>> prefixes = {
        {9, 4, 31, 6}, {7, 12, 3},       {5},
        {3, 3, 3, 3, 3, 3, 3}, {40, 2, 17}, {6, 7},
        {11, 13, 17, 19, 23},  {8, 8, 8, 8}};
    for (size_t i = 0; i < prefixes.size(); ++i) {
        Request r = makeRequest(prefixes[i]);
        r.top_k = 1 + static_cast<int>(i % 5);
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/**
 * Same-bucket interleaving on the NMT session: a long greedy request
 * holds the bucket's continuous lane while several beam requests arrive
 * and run on the direct path between its step passes.  Every direct
 * encode shares the bucket's decoder with the lane, so any state the
 * decoder hands back by reference must survive those encodes.
 */
std::vector<Request>
interleavedNmtWorkload()
{
    std::vector<Request> reqs;
    Request greedy = makeRequest({5, 9, 13, 4, 21, 2});
    greedy.max_new_tokens = 32;
    reqs.push_back(std::move(greedy));
    const std::vector<std::vector<int64_t>> beam_prefixes = {
        {7, 12, 3, 30}, {11, 13, 17}, {6, 7, 8, 9, 10}};
    for (const std::vector<int64_t> &prefix : beam_prefixes) {
        Request beam = makeRequest(prefix);
        beam.max_new_tokens = 6;
        beam.beam_width = 3;
        reqs.push_back(std::move(beam));
    }
    return reqs;
}

/** One input of the differential test: a session kind, its workload,
 *  and the arrival orders the continuous server is fed.  The first
 *  @c lead requests of an order go in first; the rest follow once the
 *  server has run a step pass, so they arrive mid-decode. */
struct DifferentialCase
{
    const char *name;
    std::function<std::unique_ptr<InferenceSession>(int slots)> session;
    std::vector<Request> workload;
    std::vector<std::vector<size_t>> orders;
    size_t lead = 0;
};

/**
 * The differential test the continuous scheduler hangs on: the
 * continuous server against a strictly sequential reference — a
 * slots=1 session decoding one request at a time through runDirect,
 * which shares no splice/step code with the scheduler's lanes.
 * Payloads must be byte-identical for every request at thread counts
 * 1/2/4 and across arrival permutations, for word-LM traffic and for
 * NMT beams interleaved with a running greedy lane.
 */
TEST(ContinuousServer, DifferentialAgainstSequentialReference)
{
    const std::vector<DifferentialCase> cases = {
        {"word_lm",
         [](int slots) -> std::unique_ptr<InferenceSession> {
             SessionConfig scfg = smallSessionConfig();
             scfg.slots = slots;
             return std::make_unique<WordLmSession>(
                 tinyLmConfig(), tinyLmParams(), scfg);
         },
         differentialWorkload(),
         {
             {0, 1, 2, 3, 4, 5, 6, 7}, // admission order
             {7, 6, 5, 4, 3, 2, 1, 0}, // reversed
             {4, 0, 6, 2, 7, 3, 5, 1}, // shuffled
         },
         /*lead=*/0},
        {"nmt_interleaved",
         [](int slots) -> std::unique_ptr<InferenceSession> {
             SessionConfig scfg = smallSessionConfig();
             scfg.slots = slots;
             return std::make_unique<NmtSession>(
                 tinyNmtConfig(), tinyNmtParams(), scfg);
         },
         interleavedNmtWorkload(),
         {
             {0, 1, 2, 3}, // beams arrive while the greedy decodes
             {0, 3, 2, 1},
         },
         /*lead=*/1},
    };

    for (const DifferentialCase &c : cases) {
        const std::vector<Request> &base = c.workload;

        // Reference: a slots=1 session, one request at a time.
        std::vector<Response> ref;
        {
            const std::unique_ptr<InferenceSession> session = c.session(1);
            for (const Request &r : base)
                ref.push_back(session->runDirect(r));
            for (const Response &resp : ref)
                ASSERT_TRUE(resp.ok) << c.name;
        }

        for (int threads : {1, 2, 4}) {
            ThreadPool::setGlobalNumThreads(threads);
            for (const std::vector<size_t> &order : c.orders) {
                Server server(c.session(smallSessionConfig().slots),
                              ServerConfig{});
                std::vector<std::future<Response>> futures;
                for (size_t k = 0; k < order.size(); ++k) {
                    if (k == c.lead && k > 0) {
                        while (server.stats().batches == 0)
                            std::this_thread::yield();
                    }
                    futures.push_back(
                        server.submit(Request(base[order[k]])));
                }
                for (size_t k = 0; k < order.size(); ++k) {
                    const Response resp = futures[k].get();
                    const Response &expect = ref[order[k]];
                    ASSERT_TRUE(resp.ok) << c.name << " threads="
                                         << threads << " k=" << k;
                    EXPECT_EQ(resp.tokens, expect.tokens)
                        << c.name << " threads=" << threads
                        << " base=" << order[k];
                    EXPECT_EQ(resp.scores, expect.scores)
                        << c.name << " threads=" << threads
                        << " base=" << order[k];
                }
                server.stop();
                const ServerStats stats = server.stats();
                EXPECT_EQ(stats.completed,
                          static_cast<int64_t>(order.size()))
                    << c.name;
                EXPECT_EQ(stats.wait_count, stats.completed) << c.name;
                // The journal must audit clean: exclusive leases,
                // re-initialized state, exactly-once termination.
                const analysis::AnalysisReport report =
                    analysis::auditSlotRecycling(server.leaseJournal(),
                                                 server.journalSlots());
                EXPECT_TRUE(report.ok()) << c.name << "\n"
                                         << report.toString();
            }
        }
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

TEST(ContinuousServer, MixedTrafficRoutesByModelAndMatchesReference)
{
    // Solo references driven directly through fresh sessions.
    WordLmSession lm_ref(tinyLmConfig(), tinyLmParams(),
                         smallSessionConfig());
    NmtSession nmt_ref(tinyNmtConfig(), tinyNmtParams(),
                       smallSessionConfig());

    Request lm_req = makeRequest({7, 12, 3});
    lm_req.top_k = 4;
    lm_req.model = "word_lm";
    Request greedy = makeRequest({5, 9, 13, 4});
    greedy.max_new_tokens = 6;
    greedy.model = "nmt";
    Request beam = makeRequest({5, 9, 13, 4});
    beam.max_new_tokens = 6;
    beam.beam_width = 3;
    beam.model = "nmt";

    const std::vector<Response> ref = {lm_ref.runDirect(lm_req),
                                       nmt_ref.runDirect(greedy),
                                       nmt_ref.runDirect(beam)};

    std::vector<std::unique_ptr<InferenceSession>> sessions;
    sessions.push_back(makeLmSession());
    sessions.push_back(makeNmtSession());
    Server server(std::move(sessions), ServerConfig{});

    Request bogus = makeRequest({1, 2});
    bogus.model = "transformer";
    const Response bad = server.submit(std::move(bogus)).get();
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.reject, RejectReason::kBadModel);

    std::vector<std::future<Response>> futures;
    futures.push_back(server.submit(std::move(lm_req)));
    futures.push_back(server.submit(std::move(greedy)));
    futures.push_back(server.submit(std::move(beam)));
    for (size_t i = 0; i < futures.size(); ++i) {
        const Response resp = futures[i].get();
        ASSERT_TRUE(resp.ok) << "request " << i;
        EXPECT_EQ(resp.tokens, ref[i].tokens) << "request " << i;
        EXPECT_EQ(resp.scores, ref[i].scores) << "request " << i;
    }
    server.stop();

    const analysis::AnalysisReport report = analysis::auditSlotRecycling(
        server.leaseJournal(), server.journalSlots());
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(ContinuousServer, CancelsWaitingRequestsAndRecyclesSlots)
{
    // Two slots, eight long-prefix requests: the last submission waits
    // through several lane rotations, so a cancel issued immediately
    // after it is submitted lands while it still sits in the queue.
    SessionConfig scfg = smallSessionConfig();
    scfg.slots = 2;
    ServerConfig cfg;
    Server server(std::make_unique<WordLmSession>(
                      tinyLmConfig(), tinyLmParams(), scfg),
                  cfg);

    std::vector<std::future<Response>> futures;
    for (int64_t i = 0; i < 8; ++i) {
        Request r = makeRequest(
            std::vector<int64_t>(8, 3 + i)); // 8 steps per request
        r.top_k = 2;
        futures.push_back(server.submit(std::move(r)));
    }
    const int64_t victim = 7; // ids are the submission order
    ASSERT_TRUE(server.cancel(victim));

    const Response cancelled = futures.back().get();
    EXPECT_FALSE(cancelled.ok);
    EXPECT_EQ(cancelled.reject, RejectReason::kCancelled);
    for (size_t i = 0; i + 1 < futures.size(); ++i)
        EXPECT_TRUE(futures[i].get().ok) << "request " << i;
    server.stop();

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 7);
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_GT(stats.recycled_slots, 0);
    EXPECT_EQ(stats.wait_count, stats.completed);
    const analysis::AnalysisReport report = analysis::auditSlotRecycling(
        server.leaseJournal(), server.journalSlots());
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(ContinuousServer, ExpiredDeadlineBudgetResolvesExpired)
{
    Server server(makeLmSession(), ServerConfig{});
    Request r = makeRequest({3, 4, 5, 6});
    r.deadline_us = 1; // a 1us budget cannot survive admission
    const Response resp = server.submit(std::move(r)).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.reject, RejectReason::kExpired);
    server.stop();
    EXPECT_EQ(server.stats().expired, 1);
}

/**
 * Queue-wait is recorded exactly once per completed request (at splice
 * time, or at a direct decode), so the histogram count must equal the
 * completed count even when requests of two buckets arrive in bursts
 * and wait across each other's step passes.
 */
TEST(Server, WaitRecordedOncePerRequestAcrossDeadlineFlushes)
{
    SessionConfig scfg = smallSessionConfig();
    scfg.buckets = {8, 16};
    Server server(std::make_unique<WordLmSession>(tinyLmConfig(),
                                                  tinyLmParams(), scfg),
                  ServerConfig{});

    std::vector<std::future<Response>> futures;
    for (int64_t i = 0; i < 12; ++i) {
        // Alternate buckets, in bursts of three.
        Request r = makeRequest(
            std::vector<int64_t>(i % 2 == 0 ? 3 : 12, 5 + i));
        r.top_k = 2;
        futures.push_back(server.submit(std::move(r)));
        if (i % 3 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    for (auto &f : futures) {
        const Response resp = f.get();
        ASSERT_TRUE(resp.ok);
        EXPECT_GE(resp.wait_us, 0.0);
        EXPECT_LE(resp.wait_us, resp.latency_us);
    }
    server.stop();

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 12);
    EXPECT_EQ(stats.wait_count, stats.completed);
}

TEST(Server, ResponsePayloadMatchesDirectSession)
{
    // The server path (queue -> scheduler -> lane) must not perturb
    // payloads relative to driving the session directly.
    const std::vector<int64_t> prefix{7, 12, 3};

    WordLmSession direct(tinyLmConfig(), tinyLmParams(),
                         smallSessionConfig());
    Request r = makeRequest(prefix, 0);
    r.top_k = 5;
    const Response ref = direct.runDirect(r);

    Server server(makeLmSession(), ServerConfig{});
    Request req = makeRequest(prefix);
    req.top_k = 5;
    const Response resp = server.submit(std::move(req)).get();
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.tokens, ref.tokens);
    EXPECT_EQ(resp.scores, ref.scores);
}

} // namespace
} // namespace echo
