/**
 * @file
 * Tests for the inference-serving subsystem: request queue admission,
 * dynamic batching, session decoding, the server round trip, the
 * batch-composition / thread-count determinism contract, and the
 * workspace-slot journal.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "analysis/hazards.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "models/nmt.h"
#include "models/serialize.h"
#include "models/word_lm.h"
#include "serve/batcher.h"
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

// ----------------------------------------------------------- batcher --

TEST(Batcher, BucketForLengthPicksSmallestFit)
{
    const std::vector<int64_t> buckets{8, 16, 32};
    EXPECT_EQ(bucketForLength(buckets, 1), 8);
    EXPECT_EQ(bucketForLength(buckets, 8), 8);
    EXPECT_EQ(bucketForLength(buckets, 9), 16);
    EXPECT_EQ(bucketForLength(buckets, 32), 32);
    EXPECT_EQ(bucketForLength(buckets, 33), -1);
}

TEST(Batcher, EmitsFullBatchImmediately)
{
    RequestQueue q(16);
    BatcherConfig cfg;
    cfg.max_batch = 3;
    cfg.max_wait = std::chrono::microseconds(60'000'000); // never expire
    cfg.buckets = {8};
    for (int64_t i = 0; i < 4; ++i) {
        Request r = makeRequest({1, 2, 3}, i);
        r.enqueued_at = std::chrono::steady_clock::now();
        ASSERT_EQ(q.tryPush(std::move(r)), RejectReason::kNone);
    }
    q.close();

    DynamicBatcher batcher(cfg, q);
    MicroBatch mb;
    ASSERT_TRUE(batcher.next(mb));
    EXPECT_EQ(mb.bucket_len, 8);
    ASSERT_EQ(mb.requests.size(), 3u); // capped at max_batch
    EXPECT_EQ(mb.requests[0].id, 0);
    EXPECT_EQ(mb.requests[2].id, 2);

    ASSERT_TRUE(batcher.next(mb)); // closed queue: remainder flushes
    ASSERT_EQ(mb.requests.size(), 1u);
    EXPECT_EQ(mb.requests[0].id, 3);
    EXPECT_FALSE(batcher.next(mb));
}

TEST(Batcher, GroupsByLengthBucket)
{
    RequestQueue q(16);
    BatcherConfig cfg;
    cfg.max_batch = 4;
    cfg.buckets = {8, 16};
    // Interleaved short/long requests: batches must not mix buckets.
    for (int64_t i = 0; i < 4; ++i) {
        Request r = makeRequest(
            std::vector<int64_t>(i % 2 == 0 ? 3 : 12, 5), i);
        r.enqueued_at = std::chrono::steady_clock::now();
        ASSERT_EQ(q.tryPush(std::move(r)), RejectReason::kNone);
    }
    q.close();

    DynamicBatcher batcher(cfg, q);
    MicroBatch mb;
    int total = 0;
    while (batcher.next(mb)) {
        ASSERT_FALSE(mb.requests.empty());
        for (const Request &r : mb.requests)
            EXPECT_EQ(bucketForLength(cfg.buckets,
                                      static_cast<int64_t>(
                                          r.tokens.size())),
                      mb.bucket_len);
        total += static_cast<int>(mb.requests.size());
    }
    EXPECT_EQ(total, 4);
}

TEST(Batcher, DeadlineFlushesPartialBatch)
{
    RequestQueue q(16);
    BatcherConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait = std::chrono::microseconds(1000);
    cfg.buckets = {8};
    Request r = makeRequest({4, 5}, 42);
    r.enqueued_at = std::chrono::steady_clock::now();
    ASSERT_EQ(q.tryPush(std::move(r)), RejectReason::kNone);

    DynamicBatcher batcher(cfg, q);
    MicroBatch mb;
    ASSERT_TRUE(batcher.next(mb)); // emitted at deadline, not blocked
    ASSERT_EQ(mb.requests.size(), 1u);
    EXPECT_EQ(mb.requests[0].id, 42);
    q.close();
    EXPECT_FALSE(batcher.next(mb));
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
    MicroBatch mb;
    mb.bucket_len = 8;
    Request r = makeRequest({7, 12, 3}, 0);
    r.top_k = 5;
    mb.requests.push_back(r);

    std::vector<Response> out;
    session.runBatch(mb, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ok);
    ASSERT_EQ(out[0].tokens.size(), 5u);
    ASSERT_EQ(out[0].scores.size(), 5u);
    for (size_t i = 0; i < out[0].tokens.size(); ++i) {
        EXPECT_GE(out[0].tokens[i], 0);
        EXPECT_LT(out[0].tokens[i], 50);
        EXPECT_LE(out[0].scores[i], 0.0f); // log-probabilities
        if (i > 0) {
            EXPECT_GE(out[0].scores[i - 1], out[0].scores[i]);
        }
    }
}

/**
 * The determinism contract: a request's payload is byte-identical
 * whether it decoded alone or alongside neighbours, at any thread
 * count.  Runs the same request solo and packed with 7 other requests,
 * across thread counts 1/2/4, and requires exact equality.
 */
TEST(Session, WordLmPayloadIndependentOfBatchAndThreads)
{
    WordLmSession session(tinyLmConfig(), tinyLmParams(),
                          smallSessionConfig());
    const std::vector<int64_t> prefix{9, 4, 31, 6};

    MicroBatch solo;
    solo.bucket_len = 8;
    {
        Request r = makeRequest(prefix, 0);
        r.top_k = 4;
        solo.requests.push_back(r);
    }
    MicroBatch packed;
    packed.bucket_len = 8;
    for (int64_t i = 0; i < 8; ++i) {
        // The target request rides in row 5; neighbours vary in length
        // and content.
        Request r =
            i == 5 ? makeRequest(prefix, 100)
                   : makeRequest(std::vector<int64_t>(
                                     static_cast<size_t>(1 + i % 7),
                                     10 + i),
                                 i);
        r.top_k = i == 5 ? 4 : 3;
        packed.requests.push_back(r);
    }

    std::vector<Response> ref;
    session.runBatch(solo, ref);
    ASSERT_EQ(ref.size(), 1u);

    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        std::vector<Response> solo_out, packed_out;
        session.runBatch(solo, solo_out);
        session.runBatch(packed, packed_out);
        ASSERT_EQ(solo_out.size(), 1u);
        ASSERT_EQ(packed_out.size(), 8u);
        EXPECT_EQ(solo_out[0].tokens, ref[0].tokens)
            << "threads=" << threads;
        EXPECT_EQ(solo_out[0].scores, ref[0].scores)
            << "threads=" << threads;
        EXPECT_EQ(packed_out[5].tokens, ref[0].tokens)
            << "threads=" << threads;
        EXPECT_EQ(packed_out[5].scores, ref[0].scores)
            << "threads=" << threads;
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

TEST(Session, NmtPayloadIndependentOfBatchAndThreads)
{
    NmtSession session(tinyNmtConfig(), tinyNmtParams(),
                       smallSessionConfig());
    const std::vector<int64_t> sentence{5, 9, 13, 4};

    MicroBatch solo;
    solo.bucket_len = 8;
    {
        Request greedy = makeRequest(sentence, 0);
        greedy.max_new_tokens = 6;
        Request beam = makeRequest(sentence, 1);
        beam.max_new_tokens = 6;
        beam.beam_width = 3;
        solo.requests = {greedy, beam};
    }
    MicroBatch packed;
    packed.bucket_len = 8;
    for (int64_t i = 0; i < 8; ++i) {
        Request r;
        if (i == 2) {
            r = makeRequest(sentence, 100);
        } else if (i == 6) {
            r = makeRequest(sentence, 101);
            r.beam_width = 3;
        } else {
            r = makeRequest(std::vector<int64_t>(
                                static_cast<size_t>(2 + i % 5), 11 + i),
                            i);
            r.beam_width = i % 2 == 0 ? 1 : 2;
        }
        r.max_new_tokens = 6;
        packed.requests.push_back(r);
    }

    std::vector<Response> ref;
    session.runBatch(solo, ref);
    ASSERT_EQ(ref.size(), 2u);
    EXPECT_TRUE(ref[0].ok);
    EXPECT_TRUE(ref[1].ok);

    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        std::vector<Response> out;
        session.runBatch(packed, out);
        ASSERT_EQ(out.size(), 8u);
        EXPECT_EQ(out[2].tokens, ref[0].tokens) << "threads=" << threads;
        EXPECT_EQ(out[2].scores, ref[0].scores) << "threads=" << threads;
        EXPECT_EQ(out[6].tokens, ref[1].tokens) << "threads=" << threads;
        EXPECT_EQ(out[6].scores, ref[1].scores) << "threads=" << threads;
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
    MicroBatch mb;
    mb.bucket_len = 8;
    Request r = makeRequest({3, 17, 8}, 0);
    r.max_new_tokens = 6;
    mb.requests.push_back(r);
    std::vector<Response> out;
    session.runBatch(mb, out);
    ASSERT_EQ(out.size(), 1u);

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
    EXPECT_EQ(hyp.tokens, out[0].tokens);
}

// ------------------------------------------------------ slot journal --

TEST(Session, SlotJournalIsAliasFree)
{
    WordLmSession session(tinyLmConfig(), tinyLmParams(),
                          smallSessionConfig());
    std::vector<Response> out;
    for (int64_t batch = 0; batch < 3; ++batch) {
        MicroBatch mb;
        mb.bucket_len = 8;
        for (int64_t i = 0; i < 4; ++i)
            mb.requests.push_back(
                makeRequest({batch + 3, i + 5}, batch * 10 + i));
        session.runBatch(mb, out);
    }
    EXPECT_EQ(session.slotJournal().size(), 12u);
    const analysis::AnalysisReport report =
        analysis::detectWorkspaceAliasing(session.slotJournal(), 8);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(WorkspaceAliasing, DetectsOverlapAndOutOfRange)
{
    std::vector<analysis::SlotInterval> journal;
    // Requests 1 and 2 both hold (pool 0, slot 3) during batch 5.
    journal.push_back({1, 0, 3, 5, 6});
    journal.push_back({2, 0, 3, 5, 6});
    // Request 3 maps outside the slot range.
    journal.push_back({3, 0, 9, 6, 7});

    const analysis::AnalysisReport report =
        analysis::detectWorkspaceAliasing(journal, 8);
    EXPECT_FALSE(report.ok());
    bool saw_alias = false, saw_range = false;
    for (const analysis::Diagnostic &d : report.diagnostics) {
        saw_alias |= d.check == analysis::Check::kSlotAliasing;
        saw_range |= d.check == analysis::Check::kSlotOutOfRange;
    }
    EXPECT_TRUE(saw_alias);
    EXPECT_TRUE(saw_range);
}

TEST(WorkspaceAliasing, DisjointPoolsAndTimesAreClean)
{
    std::vector<analysis::SlotInterval> journal;
    journal.push_back({1, 0, 3, 5, 6}); // same slot, different pool
    journal.push_back({2, 1, 3, 5, 6});
    journal.push_back({3, 0, 3, 6, 7}); // same slot, later interval
    EXPECT_TRUE(analysis::detectWorkspaceAliasing(journal, 8).ok());
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
    ServerConfig cfg;
    cfg.max_wait = std::chrono::microseconds(500);
    Server server(makeLmSession(), cfg);

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
    EXPECT_STREQ(tierName(Tier::kInteractive), "interactive");
    EXPECT_STREQ(tierName(Tier::kBatch), "batch");
    EXPECT_STREQ(rejectReasonName(RejectReason::kOverloaded),
                 "overloaded");
    EXPECT_STREQ(rejectReasonName(RejectReason::kBadModel),
                 "bad-model");
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
 * continuous server against the slots=1 run-to-completion server (a
 * strictly sequential reference — every micro-batch holds one request).
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

        // Reference: slots=1, legacy batcher, submitted one at a time.
        std::vector<Response> ref;
        {
            ServerConfig cfg;
            cfg.scheduler = SchedulerKind::kDynamicBatch;
            cfg.max_wait = std::chrono::microseconds(100);
            Server server(c.session(1), cfg);
            for (const Request &r : base)
                ref.push_back(server.submit(Request(r)).get());
            server.stop();
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

    std::vector<Response> ref;
    {
        MicroBatch mb;
        mb.bucket_len = 8;
        mb.requests = {lm_req};
        std::vector<Response> out;
        lm_ref.runBatch(mb, out);
        ref.push_back(out[0]);
        mb.requests = {greedy, beam};
        nmt_ref.runBatch(mb, out);
        ref.push_back(out[0]);
        ref.push_back(out[1]);
    }

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
 * Regression for the max-wait x deadline wait double-count: queue-wait
 * is recorded exactly once per completed request (at batch emission in
 * legacy mode, at splice time in continuous mode), so the histogram
 * count must equal the completed count even when deadline flushes
 * leave requests pending across buckets.
 */
TEST(Server, WaitRecordedOncePerRequestAcrossDeadlineFlushes)
{
    for (const SchedulerKind kind :
         {SchedulerKind::kDynamicBatch, SchedulerKind::kContinuous}) {
        SessionConfig scfg = smallSessionConfig();
        scfg.buckets = {8, 16};
        ServerConfig cfg;
        cfg.scheduler = kind;
        cfg.max_wait = std::chrono::microseconds(500);
        Server server(std::make_unique<WordLmSession>(
                          tinyLmConfig(), tinyLmParams(), scfg),
                      cfg);

        std::vector<std::future<Response>> futures;
        for (int64_t i = 0; i < 12; ++i) {
            // Alternate buckets so deadline flushes of one bucket
            // leave the other's requests pending.
            Request r = makeRequest(
                std::vector<int64_t>(i % 2 == 0 ? 3 : 12, 5 + i));
            r.top_k = 2;
            futures.push_back(server.submit(std::move(r)));
            if (i % 3 == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(300));
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
        EXPECT_EQ(stats.wait_count, stats.completed)
            << "scheduler=" << static_cast<int>(kind);
    }
}

TEST(Server, ResponsePayloadMatchesDirectSession)
{
    // The server path (queue -> batcher -> worker) must not perturb
    // payloads relative to driving the session directly.
    const std::vector<int64_t> prefix{7, 12, 3};

    WordLmSession direct(tinyLmConfig(), tinyLmParams(),
                         smallSessionConfig());
    MicroBatch mb;
    mb.bucket_len = 8;
    Request r = makeRequest(prefix, 0);
    r.top_k = 5;
    mb.requests.push_back(r);
    std::vector<Response> ref;
    direct.runBatch(mb, ref);
    ASSERT_EQ(ref.size(), 1u);

    Server server(makeLmSession(), ServerConfig{});
    Request req = makeRequest(prefix);
    req.top_k = 5;
    const Response resp = server.submit(std::move(req)).get();
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.tokens, ref[0].tokens);
    EXPECT_EQ(resp.scores, ref[0].scores);
}

} // namespace
} // namespace echo
