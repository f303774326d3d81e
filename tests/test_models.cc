/**
 * @file
 * Tests for the model zoo: word-level LM, NMT (training graph, Echo
 * pass interaction, greedy decoding), and the CNN proxy.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "data/batcher.h"
#include "echo/recompute_pass.h"
#include "graph/executor.h"
#include "models/cnn_proxy.h"
#include "models/nmt.h"
#include "models/serialize.h"
#include "models/transformer.h"
#include "models/word_lm.h"
#include "train/simulation.h"

namespace echo::models {
namespace {

WordLmConfig
tinyLmConfig(rnn::RnnBackend backend = rnn::RnnBackend::kDefault)
{
    WordLmConfig cfg;
    cfg.vocab = 50;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 6;
    cfg.backend = backend;
    return cfg;
}

data::Corpus
tinyCorpus()
{
    data::CorpusConfig cfg;
    cfg.vocab = data::Vocab{50};
    cfg.num_tokens = 4000;
    cfg.seed = 3;
    return data::Corpus::generate(cfg);
}

TEST(WordLm, BuildsAndRunsOneIteration)
{
    WordLmModel model(tinyLmConfig());
    Rng rng(1);
    ParamStore params = model.initialParams(rng);
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, 4, 6);

    graph::Executor ex(model.fetches());
    const auto out = ex.run(model.makeFeed(params, batcher.next()));
    EXPECT_GT(out[0].at(0), 0.0f);
    EXPECT_TRUE(out[0].allFinite());
    EXPECT_EQ(out.size(), 1 + model.weights().size());
}

TEST(WordLm, InitialLossNearLogVocab)
{
    WordLmModel model(tinyLmConfig());
    Rng rng(2);
    ParamStore params = model.initialParams(rng);
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, 4, 6);
    graph::Executor ex({model.loss()});
    const auto out = ex.run(model.makeFeed(params, batcher.next()));
    EXPECT_NEAR(out[0].at(0), std::log(50.0), 1.0);
}

TEST(WordLm, BackendsAgreeOnLoss)
{
    data::Corpus corpus = tinyCorpus();
    double losses[3];
    int idx = 0;
    for (const rnn::RnnBackend backend :
         {rnn::RnnBackend::kDefault, rnn::RnnBackend::kCudnn,
          rnn::RnnBackend::kEco}) {
        WordLmModel model(tinyLmConfig(backend));
        Rng rng(7); // same seed -> same parameter values by name order
        ParamStore params = model.initialParams(rng);
        data::LmBatcher batcher(corpus, 4, 6);
        graph::Executor ex({model.loss()});
        losses[idx++] =
            ex.run(model.makeFeed(params, batcher.next()))[0].at(0);
    }
    EXPECT_NEAR(losses[0], losses[1], 1e-4);
    EXPECT_NEAR(losses[0], losses[2], 1e-4);
}

NmtConfig
tinyNmtConfig()
{
    NmtConfig cfg;
    cfg.src_vocab = 40;
    cfg.tgt_vocab = 45;
    cfg.hidden = 8;
    cfg.enc_layers = 1;
    cfg.batch = 3;
    cfg.src_len = 7;
    cfg.tgt_len = 7;
    return cfg;
}

data::ParallelCorpus
tinyParallelCorpus()
{
    data::ParallelCorpusConfig cfg;
    cfg.src_vocab = data::Vocab{40};
    cfg.tgt_vocab = data::Vocab{45};
    cfg.num_pairs = 64;
    cfg.min_len = 3;
    cfg.max_len = 6;
    cfg.seed = 11;
    return data::ParallelCorpus::generate(cfg);
}

TEST(Nmt, BuildsAndRunsOneIteration)
{
    NmtModel model(tinyNmtConfig());
    Rng rng(1);
    ParamStore params = model.initialParams(rng);
    data::ParallelCorpus pc = tinyParallelCorpus();
    data::NmtBatcher batcher(pc, 3, 7, 7);

    graph::Executor ex(model.fetches());
    const auto out = ex.run(model.makeFeed(params, batcher.next()));
    EXPECT_TRUE(out[0].allFinite());
    EXPECT_NEAR(out[0].at(0), std::log(45.0), 1.2);
}

TEST(Nmt, LayerTagsCoverPaperBreakdownCategories)
{
    NmtModel model(tinyNmtConfig());
    bool has_tag[5] = {false, false, false, false, false};
    const char *tags[5] = {"embedding", "rnn", "decoder", "attention",
                           "output"};
    for (const auto &n : model.graph().nodes())
        for (int i = 0; i < 5; ++i)
            if (n->layer_tag == tags[i])
                has_tag[i] = true;
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(has_tag[i]) << "missing layer tag " << tags[i];
}

TEST(Nmt, AttentionDominatesFeatureMapsAtScale)
{
    // Even at reduced scale, attention feature maps are the largest
    // layer category once T is nontrivial (the Fig. 5 shape).
    NmtConfig cfg = tinyNmtConfig();
    cfg.batch = 4;
    cfg.hidden = 16;
    cfg.src_len = 24;
    cfg.tgt_len = 24;
    NmtModel model(cfg);
    train::SimulationOptions opts;
    opts.profiler.cuda_context_bytes = 0;
    const auto prof = train::profileIteration(
        model.fetches(), model.weightGrads(), opts);
    double best = 0.0;
    std::string best_layer;
    for (const auto &[layer, bytes] : prof.memory.by_layer) {
        if (static_cast<double>(bytes) > best) {
            best = static_cast<double>(bytes);
            best_layer = layer;
        }
    }
    EXPECT_EQ(best_layer, "attention");
}

TEST(Nmt, EchoPassHalvesAttentionMemory)
{
    NmtConfig cfg = tinyNmtConfig();
    cfg.batch = 4;
    cfg.hidden = 16;
    cfg.src_len = 24;
    cfg.tgt_len = 24;

    NmtModel baseline(cfg);
    NmtModel rewritten(cfg);
    pass::PassConfig pass_cfg;
    pass_cfg.overhead_budget_fraction = 0.25; // reduced-scale budget
    const pass::PassResult res = pass::runRecomputePass(
        rewritten.graph(), rewritten.fetches(), pass_cfg);
    EXPECT_GT(res.num_regions, 0);

    train::SimulationOptions opts;
    opts.profiler.cuda_context_bytes = 0;
    const auto before = train::profileIteration(
        baseline.fetches(), baseline.weightGrads(), opts);
    const auto after = train::profileIteration(
        rewritten.fetches(), rewritten.weightGrads(), opts);
    EXPECT_LT(after.memory.by_layer.at("attention"),
              before.memory.by_layer.at("attention") / 2);
    EXPECT_LT(after.memory.planned_bytes, before.memory.planned_bytes);
}

TEST(Nmt, PassPreservesLossExactly)
{
    NmtModel baseline(tinyNmtConfig());
    NmtModel rewritten(tinyNmtConfig());
    pass::PassConfig pass_cfg;
    pass_cfg.overhead_budget_fraction = 0.25;
    pass::runRecomputePass(rewritten.graph(), rewritten.fetches(),
                           pass_cfg);

    Rng rng(21);
    ParamStore params = baseline.initialParams(rng);
    data::ParallelCorpus pc = tinyParallelCorpus();
    data::NmtBatcher batcher(pc, 3, 7, 7);
    const data::NmtBatch batch = batcher.next();

    graph::Executor ex_a(baseline.fetches());
    graph::Executor ex_b(rewritten.fetches());
    const auto out_a = ex_a.run(baseline.makeFeed(params, batch));
    const auto out_b = ex_b.run(rewritten.makeFeed(params, batch));
    ASSERT_EQ(out_a.size(), out_b.size());
    for (size_t i = 0; i < out_a.size(); ++i)
        for (int64_t j = 0; j < out_a[i].numel(); ++j)
            EXPECT_EQ(out_a[i].at(j), out_b[i].at(j));
}

TEST(Nmt, GreedyDecodeProducesTokensInVocab)
{
    NmtModel model(tinyNmtConfig());
    Rng rng(4);
    ParamStore params = model.initialParams(rng);
    data::ParallelCorpus pc = tinyParallelCorpus();
    data::NmtBatcher batcher(pc, 3, 7, 7);
    const data::NmtBatch batch = batcher.next();

    const auto decoded = model.greedyDecode(params, batch.src, 7);
    ASSERT_EQ(decoded.size(), 3u);
    for (const auto &sent : decoded) {
        EXPECT_LE(sent.size(), 7u);
        for (const int64_t tok : sent)
            EXPECT_LT(tok, 45);
    }
}

TEST(NmtDecoder, RowIsIndependentOfBatchComposition)
{
    // The serving determinism contract: a row's encoder outputs and
    // step logits are a pure function of that row — byte-identical
    // whether the row runs alone or padded into a wider batch.
    const NmtConfig cfg = tinyNmtConfig();
    NmtModel model(cfg);
    Rng rng(5);
    const ParamStore params = model.initialParams(rng);

    const std::vector<int64_t> sentence = {5, 9, 13, 4};
    const int64_t ts = 7;

    NmtDecoder solo(cfg, 1, ts);
    Tensor solo_src = Tensor::zeros(Shape({1, ts}));
    for (size_t t = 0; t < sentence.size(); ++t)
        solo_src.at(0, static_cast<int64_t>(t)) =
            static_cast<float>(sentence[t]);

    NmtDecoder wide(cfg, 4, ts);
    Tensor wide_src = Tensor::zeros(Shape({4, ts}));
    for (size_t t = 0; t < sentence.size(); ++t)
        wide_src.at(2, static_cast<int64_t>(t)) =
            static_cast<float>(sentence[t]);
    // Give the neighbours different content.
    wide_src.at(0, 0) = 7.0f;
    wide_src.at(1, 0) = 11.0f;
    wide_src.at(3, 0) = 3.0f;

    const auto solo_enc = solo.encode(params, solo_src);
    const auto wide_enc = wide.encode(params, wide_src);
    const int64_t h = cfg.hidden;
    for (int64_t t = 0; t < ts; ++t)
        for (int64_t j = 0; j < h; ++j) {
            EXPECT_EQ(solo_enc.hs.at(0, t, j), wide_enc.hs.at(2, t, j));
            EXPECT_EQ(solo_enc.keys.at(0, t, j),
                      wide_enc.keys.at(2, t, j));
        }

    auto solo_state = solo.initialState();
    auto wide_state = wide.initialState();
    for (int step = 0; step < 3; ++step) {
        const Tensor solo_logits =
            solo.step(params, solo_state, solo_enc);
        const Tensor wide_logits =
            wide.step(params, wide_state, wide_enc);
        for (int64_t v = 0; v < cfg.tgt_vocab; ++v)
            EXPECT_EQ(solo_logits.at(0, v), wide_logits.at(2, v))
                << "step " << step << " vocab " << v;
        // Feed both rows the same next token.
        int64_t best = 0;
        for (int64_t v = 1; v < cfg.tgt_vocab; ++v)
            if (solo_logits.at(0, v) > solo_logits.at(0, best))
                best = v;
        solo_state.token.at(0) = static_cast<float>(best);
        wide_state.token.at(2) = static_cast<float>(best);
    }
}

TEST(WordLmStepper, RowIsIndependentOfNeighborRows)
{
    const WordLmConfig cfg = tinyLmConfig();
    WordLmModel model(cfg);
    Rng rng(6);
    const ParamStore params = model.initialParams(rng);

    WordLmStepper solo(cfg, 1);
    WordLmStepper wide(cfg, 8);
    auto solo_state = solo.initialState();
    auto wide_state = wide.initialState();

    const std::vector<int64_t> prefix = {7, 12, 3};
    for (size_t t = 0; t < prefix.size(); ++t) {
        Tensor solo_tok(Shape({1}));
        solo_tok.at(0) = static_cast<float>(prefix[t]);
        Tensor wide_tok(Shape({8}));
        for (int64_t r = 0; r < 8; ++r)
            wide_tok.at(r) = static_cast<float>((r * 5 + t) %
                                                cfg.vocab);
        wide_tok.at(5) = static_cast<float>(prefix[t]);

        const Tensor solo_logits =
            solo.step(params, solo_tok, solo_state);
        const Tensor wide_logits =
            wide.step(params, wide_tok, wide_state);
        for (int64_t v = 0; v < cfg.vocab; ++v)
            EXPECT_EQ(solo_logits.at(0, v), wide_logits.at(5, v))
                << "step " << t << " vocab " << v;
    }
}

TEST(WordLmStepper, MatchesTrainingGraphLogits)
{
    // Stepping token-by-token over the training weights must walk the
    // exact same arithmetic as the training graph's forward pass: the
    // step graph reuses the training weight names and cell structure.
    const WordLmConfig cfg = tinyLmConfig();
    WordLmModel model(cfg);
    Rng rng(7);
    const ParamStore params = model.initialParams(rng);

    WordLmStepper stepper(cfg, 1);
    auto state = stepper.initialState();
    Tensor tok(Shape({1}));
    tok.at(0) = 9.0f;
    const Tensor logits = stepper.step(params, tok, state);
    EXPECT_TRUE(logits.allFinite());
    ASSERT_EQ(logits.shape(), Shape({1, cfg.vocab}));
    EXPECT_EQ(state.h.size(), static_cast<size_t>(cfg.layers));
    EXPECT_EQ(state.c.size(), static_cast<size_t>(cfg.layers));
}


TEST(Nmt, TfStyleAttentionVariantTrainsAndDiffers)
{
    // The TensorFlow-style lowering (no layer norm in the scoring
    // composite) is a different graph with slightly different resource
    // usage (the §6.2.2 ~10% observation) and still a valid training
    // graph with finite loss.
    NmtConfig mx = tinyNmtConfig();
    NmtConfig tf = tinyNmtConfig();
    tf.normalized_attention = false;
    NmtModel mx_model(mx);
    NmtModel tf_model(tf);
    EXPECT_LT(tf_model.graph().numNodes(), mx_model.graph().numNodes());

    Rng rng(31);
    ParamStore params = tf_model.initialParams(rng);
    data::ParallelCorpus pc = tinyParallelCorpus();
    data::NmtBatcher batcher(pc, 3, 7, 7);
    graph::Executor ex({tf_model.loss()});
    const auto out = ex.run(tf_model.makeFeed(params, batcher.next()));
    EXPECT_TRUE(out[0].allFinite());
}

TEST(Nmt, EchoPassAppliesToTfStyleGraph)
{
    // Framework generality: the pass operates on the dataflow graph,
    // so the TF-style lowering is optimized just the same.
    NmtConfig cfg = tinyNmtConfig();
    cfg.normalized_attention = false;
    cfg.src_len = 20;
    cfg.tgt_len = 20;
    NmtModel model(cfg);
    pass::PassConfig pass_cfg;
    pass_cfg.overhead_budget_fraction = -1.0;
    const auto res = pass::runRecomputePass(model.graph(),
                                            model.fetches(), pass_cfg);
    EXPECT_GT(res.num_regions, 0);
    EXPECT_GT(res.bytes_saved, 0);
}


TEST(Serialize, RoundTripPreservesEveryTensorBit)
{
    Rng rng(41);
    ParamStore params;
    params["a"] = Tensor::uniform(Shape({3, 5}), rng, -2.0f, 2.0f);
    params["b.long/name"] = Tensor::uniform(Shape({7}), rng);
    params["c"] = Tensor::zeros(Shape({2, 2, 2}));
    params["c"].at(1, 1, 1) = -0.0f;

    const std::string path =
        ::testing::TempDir() + "echo_params_test.ckpt";
    saveParams(params, path);
    const ParamStore restored = loadParams(path);

    ASSERT_EQ(restored.size(), params.size());
    for (const auto &[name, tensor] : params) {
        const auto it = restored.find(name);
        ASSERT_NE(it, restored.end()) << name;
        ASSERT_EQ(it->second.shape(), tensor.shape());
        for (int64_t i = 0; i < tensor.numel(); ++i)
            EXPECT_EQ(it->second.at(i), tensor.at(i));
    }
}

TEST(Serialize, RoundTripKeepsEmptyTensor)
{
    // An empty tensor has no storage: it saves as a header with no
    // data bytes and loads back with its shape.
    ParamStore params;
    params["empty"] = Tensor(Shape({0, 3}));
    params["w"] = Tensor::full(Shape({2}), 1.5f);

    const std::string path =
        ::testing::TempDir() + "echo_empty_tensor.ckpt";
    saveParams(params, path);
    const ParamStore restored = loadParams(path);

    ASSERT_EQ(restored.size(), 2u);
    EXPECT_EQ(restored.at("empty").shape(), Shape({0, 3}));
    EXPECT_EQ(restored.at("empty").numel(), 0);
    ASSERT_EQ(restored.at("w").shape(), Shape({2}));
    EXPECT_EQ(restored.at("w").at(1), 1.5f);
}

TEST(Serialize, TrainedModelRestoresExactLoss)
{
    WordLmModel model(tinyLmConfig());
    Rng rng(43);
    ParamStore params = model.initialParams(rng);
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, 4, 6);
    const data::LmBatch batch = batcher.next();

    graph::Executor ex({model.loss()});
    const float before = ex.run(model.makeFeed(params, batch))[0].at(0);

    const std::string path =
        ::testing::TempDir() + "echo_lm_test.ckpt";
    saveParams(params, path);
    const ParamStore restored = loadParams(path);
    const float after =
        ex.run(model.makeFeed(restored, batch))[0].at(0);
    EXPECT_EQ(before, after);
}

TEST(Serialize, RejectsGarbageFiles)
{
    const std::string path =
        ::testing::TempDir() + "echo_garbage.ckpt";
    {
        std::ofstream os(path, std::ios::binary);
        os << "definitely not a checkpoint";
    }
    EXPECT_EXIT({ loadParams(path); },
                ::testing::ExitedWithCode(1), "not an ECHO checkpoint");
}

TEST(Serialize, WritesVersionedHeader)
{
    ParamStore params;
    params["w"] = Tensor::full(Shape({2}), 1.5f);
    const std::string path =
        ::testing::TempDir() + "echo_header.ckpt";
    saveParams(params, path);

    std::ifstream is(path, std::ios::binary);
    char magic[8];
    is.read(magic, sizeof(magic));
    EXPECT_EQ(std::string(magic, 8), "ECHOCKPT");
    uint32_t version = 0, reserved = 1;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    is.read(reinterpret_cast<char *>(&reserved), sizeof(reserved));
    EXPECT_EQ(version, kCheckpointVersion);
    EXPECT_EQ(reserved, 0u);
}

/** Write @p params in the retired headerless version-1 layout: the
 *  magic spells the version in four digits and no version word
 *  follows it. */
void
writeLegacyCheckpoint(const ParamStore &params, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    char magic[9];
    std::snprintf(magic, sizeof(magic), "ECHO%04d", 1);
    os.write(magic, 8);
    const auto u64 = [&](uint64_t v) {
        os.write(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    u64(params.size());
    for (const auto &[name, tensor] : params) {
        u64(name.size());
        os.write(name.data(),
                 static_cast<std::streamsize>(name.size()));
        u64(static_cast<uint64_t>(tensor.shape().ndim()));
        for (int d = 0; d < tensor.shape().ndim(); ++d) {
            const int64_t extent = tensor.shape()[d];
            os.write(reinterpret_cast<const char *>(&extent),
                     sizeof(extent));
        }
        os.write(reinterpret_cast<const char *>(tensor.data()),
                 static_cast<std::streamsize>(tensor.numel() *
                                              sizeof(float)));
    }
}

TEST(Serialize, RejectsLegacyHeaderlessFormat)
{
    Rng rng(47);
    ParamStore params;
    params["layer.w"] = Tensor::uniform(Shape({4, 3}), rng);
    params["layer.b"] = Tensor::uniform(Shape({3}), rng);
    const std::string path =
        ::testing::TempDir() + "echo_legacy.ckpt";
    writeLegacyCheckpoint(params, path);

    // A clean error naming the format, not a misread body or a crash.
    EXPECT_EXIT({ loadParams(path); }, ::testing::ExitedWithCode(1),
                "unsupported checkpoint format 'ECHO0+1'");
}

TEST(Serialize, RejectsTruncatedFile)
{
    ParamStore params;
    Rng rng(48);
    params["w"] = Tensor::uniform(Shape({16, 16}), rng);
    const std::string full =
        ::testing::TempDir() + "echo_full.ckpt";
    saveParams(params, full);

    std::ifstream is(full, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    const std::string path =
        ::testing::TempDir() + "echo_truncated.ckpt";
    {
        std::ofstream os(path, std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_EXIT({ loadParams(path); }, ::testing::ExitedWithCode(1),
                "corrupt checkpoint");
}

TEST(Serialize, RejectsUnsupportedVersion)
{
    ParamStore params;
    params["w"] = Tensor::full(Shape({1}), 0.0f);
    const std::string path =
        ::testing::TempDir() + "echo_future.ckpt";
    saveParams(params, path);
    {
        // Bump the version word in place.
        std::fstream os(path,
                        std::ios::binary | std::ios::in | std::ios::out);
        os.seekp(8);
        const uint32_t future = kCheckpointVersion + 1;
        os.write(reinterpret_cast<const char *>(&future),
                 sizeof(future));
    }
    EXPECT_EXIT({ loadParams(path); }, ::testing::ExitedWithCode(1),
                "unsupported checkpoint version");
}

/** Write a one-tensor checkpoint whose header declares @p dims and
 *  that holds no data bytes at all. */
void
writeHeaderOnlyCheckpoint(const std::vector<int64_t> &dims,
                          const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    const auto raw = [&](const auto &v) {
        os.write(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    os.write("ECHOCKPT", 8);
    raw(kCheckpointVersion);
    raw(uint32_t{0}); // reserved
    raw(uint64_t{1}); // tensor count
    raw(uint64_t{1}); // name length
    os.write("w", 1);
    raw(uint64_t{dims.size()});
    for (const int64_t extent : dims)
        raw(extent);
}

TEST(Serialize, RejectsTensorLargerThanTheFile)
{
    // 2^40 elements: allocating them first used to abort the process.
    const std::string path = ::testing::TempDir() + "echo_huge.ckpt";
    writeHeaderOnlyCheckpoint({1ll << 20, 1ll << 20}, path);
    EXPECT_EXIT({ loadParams(path); }, ::testing::ExitedWithCode(1),
                "corrupt checkpoint");
}

TEST(Serialize, RejectsOverflowingElementCount)
{
    // 2^31 * 2^31 * 4 elements wraps a 64-bit element count to 0.
    const std::string path = ::testing::TempDir() + "echo_wrap.ckpt";
    writeHeaderOnlyCheckpoint({1ll << 31, 1ll << 31, 4}, path);
    EXPECT_EXIT({ loadParams(path); }, ::testing::ExitedWithCode(1),
                "corrupt checkpoint");
}

TEST(Serialize, TruncatedOrBitFlippedHeadersFailCleanly)
{
    Rng rng(49);
    ParamStore params;
    params["a"] = Tensor::uniform(Shape({2, 3}), rng);
    params["bias"] = Tensor::uniform(Shape({4}), rng);
    const std::string good = ::testing::TempDir() + "echo_fuzz_src.ckpt";
    saveParams(params, good);
    std::ifstream is(good, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());

    // Offsets of the structural u64 words: the tensor count, then per
    // tensor its name length, rank and extents.
    std::vector<size_t> words = {16};
    const auto u64At = [&](size_t off) {
        uint64_t v = 0;
        std::memcpy(&v, bytes.data() + off, sizeof(v));
        return v;
    };
    size_t off = 24;
    for (uint64_t i = 0; i < u64At(16); ++i) {
        words.push_back(off);
        off += 8 + u64At(off);
        const uint64_t ndim = u64At(off);
        uint64_t numel = 1;
        for (uint64_t d = 0; d <= ndim; ++d) {
            words.push_back(off + 8 * d);
            if (d > 0)
                numel *= u64At(off + 8 * d);
        }
        off += 8 * (ndim + 1) + 4 * numel;
    }
    ASSERT_EQ(off, bytes.size());

    const std::string path = ::testing::TempDir() + "echo_fuzz.ckpt";
    const auto expectCleanFailure = [&](const std::string &content,
                                        const std::string &what) {
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(content.data(),
                     static_cast<std::streamsize>(content.size()));
        }
        // Exit code 1 is the loader's error; an abort (bad_alloc, a
        // wrapped element count) would be a signal instead.
        EXPECT_EXIT({ loadParams(path); }, ::testing::ExitedWithCode(1),
                    "corrupt checkpoint")
            << what;
    };
    for (size_t len = 0; len < bytes.size(); ++len)
        expectCleanFailure(bytes.substr(0, len),
                           "prefix of " + std::to_string(len) + " bytes");
    for (const size_t word : words)
        for (int bit = 0; bit < 64; ++bit) {
            std::string flipped = bytes;
            flipped[word + bit / 8] =
                static_cast<char>(flipped[word + bit / 8] ^ (1 << bit % 8));
            expectCleanFailure(flipped, "bit " + std::to_string(bit) +
                                            " of the word at byte " +
                                            std::to_string(word));
        }
}

TEST(Cnn, BuildsAndComputesFiniteLoss)
{
    CnnConfig cfg;
    cfg.batch = 2;
    cfg.image = 16;
    cfg.base_channels = 4;
    cfg.classes = 10;
    cfg.blocks_per_stage = 1;
    cfg.stages = 2;
    CnnModel model(cfg);

    Rng rng(6);
    ParamStore params = model.initialParams(rng);
    Tensor images =
        Tensor::uniform(Shape({2, 3, 16, 16}), rng, -1.0f, 1.0f);
    Tensor labels(Shape({2}), {1.0f, 7.0f});

    graph::Executor ex({model.loss()});
    const auto out =
        ex.run(model.makeFeed(params, images, labels));
    EXPECT_TRUE(out[0].allFinite());
    EXPECT_NEAR(out[0].at(0), std::log(10.0), 1.5);
}

TEST(Cnn, ComputeBoundAtScale)
{
    // Fig. 4(a)'s premise: convolutions saturate compute, so the GPU
    // kernel time dwarfs the launch overhead (the LSTM's situation is
    // the reverse).
    CnnConfig cfg;
    cfg.batch = 32;
    cfg.image = 224;
    CnnModel model(cfg);
    const auto rep = gpusim::simulateRun(model.fetches(),
                                         gpusim::GpuSpec::titanXp());
    EXPECT_GT(rep.gpu_kernel_time_us, 20 * rep.cuda_launch_time_us);
}


TEST(Transformer, BuildsTrainsAndLossDecreases)
{
    models::TransformerConfig cfg;
    cfg.vocab = 20;
    cfg.d_model = 8;
    cfg.d_ff = 16;
    cfg.layers = 1;
    cfg.batch = 4;
    cfg.seq_len = 5;
    TransformerModel model(cfg);

    Rng rng(51);
    ParamStore params = model.initialParams(rng);
    // A fixed repetitive token pattern the block can memorize.
    Tensor tokens(Shape({4, 5}));
    Tensor labels(Shape({20}));
    for (int64_t i = 0; i < 20; ++i) {
        tokens.at(i) = static_cast<float>(3 + (i % 7));
        labels.at(i) = static_cast<float>(3 + ((i + 1) % 7));
    }
    graph::Executor ex(model.fetches());
    double first = 0.0, last = 0.0;
    for (int step = 0; step < 30; ++step) {
        const auto out = ex.run(model.makeFeed(params, tokens, labels));
        if (step == 0)
            first = out[0].at(0);
        last = out[0].at(0);
        ASSERT_TRUE(std::isfinite(last));
        for (size_t wi = 0; wi < model.weights().size(); ++wi) {
            Tensor &w = params.at(model.weights()[wi].first);
            const Tensor &g = out[wi + 1];
            for (int64_t j = 0; j < w.numel(); ++j)
                w.at(j) -= 0.1f * g.at(j);
        }
    }
    EXPECT_LT(last, first);
}

TEST(Transformer, EchoPassIsBitExactAndGemmSheltered)
{
    models::TransformerConfig cfg;
    cfg.vocab = 20;
    cfg.d_model = 8;
    cfg.d_ff = 16;
    cfg.layers = 2;
    cfg.batch = 3;
    cfg.seq_len = 6;
    TransformerModel baseline(cfg);
    TransformerModel rewritten(cfg);

    pass::PassConfig pc;
    pc.overhead_budget_fraction = -1.0;
    const auto res = pass::runRecomputePass(rewritten.graph(),
                                            rewritten.fetches(), pc);
    // The layer-norm/residual composites are recomputable; the
    // [BxTxT] attention weights are BMM-sheltered and must remain.
    EXPECT_GT(res.num_regions, 0);
    for (const auto &n : rewritten.graph().nodes()) {
        if (n->phase == graph::Phase::kRecompute &&
            n->op->name() != "fused_recompute") {
            EXPECT_TRUE(n->op->cheapToRecompute());
        }
    }

    Rng rng(53);
    ParamStore params = baseline.initialParams(rng);
    Tensor tokens(Shape({3, 6}));
    Tensor labels(Shape({18}));
    for (int64_t i = 0; i < 18; ++i) {
        tokens.at(i) = static_cast<float>(3 + (i % 5));
        labels.at(i) = static_cast<float>(3 + ((i + 2) % 5));
    }
    graph::Executor ex_a(baseline.fetches());
    graph::Executor ex_b(rewritten.fetches());
    const auto out_a =
        ex_a.run(baseline.makeFeed(params, tokens, labels));
    const auto out_b =
        ex_b.run(rewritten.makeFeed(params, tokens, labels));
    ASSERT_EQ(out_a.size(), out_b.size());
    for (size_t i = 0; i < out_a.size(); ++i)
        for (int64_t j = 0; j < out_a[i].numel(); ++j)
            EXPECT_EQ(out_a[i].at(j), out_b[i].at(j));
}

} // namespace
} // namespace echo::models
