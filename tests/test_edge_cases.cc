/**
 * @file
 * Edge cases and error paths: the fatal()/panic() discipline on invalid
 * arguments, boundary shapes, and small API contracts not covered by
 * the per-module suites.
 */
#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/table.h"
#include "data/vocab.h"
#include "graph/executor.h"
#include "graph/ops/oplib.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/gemm_model.h"
#include "rnn/rnn_config.h"
#include "tensor/ops.h"

namespace echo {
namespace {

namespace ol = graph::oplib;

// ----------------------------------------------------------------------
// Shapes & tensors
// ----------------------------------------------------------------------

TEST(EdgeShape, NegativeDimensionIsFatal)
{
    EXPECT_EXIT({ Shape s({2, -1}); (void)s; },
                ::testing::ExitedWithCode(1), "negative dimension");
}

TEST(EdgeShape, ScalarShapeNumelIsOne)
{
    Shape s{};
    EXPECT_EQ(s.ndim(), 0);
    EXPECT_EQ(s.numel(), 1);
}

TEST(EdgeShape, ZeroExtentGivesZeroNumel)
{
    Shape s({4, 0, 2});
    EXPECT_EQ(s.numel(), 0);
    EXPECT_EQ(s.bytes(), 0);
}

TEST(EdgeTensor, ReshapeElementCountMismatchIsFatal)
{
    Tensor t = Tensor::zeros(Shape({2, 3}));
    EXPECT_EXIT({ t.reshape(Shape({7})); },
                ::testing::ExitedWithCode(1), "changes element count");
}

TEST(EdgeTensor, WrongValueCountIsFatal)
{
    EXPECT_EXIT({ Tensor t(Shape({3}), {1.0f, 2.0f}); (void)t; },
                ::testing::ExitedWithCode(1), "value count");
}

// ----------------------------------------------------------------------
// Tensor ops
// ----------------------------------------------------------------------

TEST(EdgeOps, GemmRejectsNonMatrices)
{
    Tensor a = Tensor::zeros(Shape({2, 3, 4}));
    Tensor b = Tensor::zeros(Shape({4, 5}));
    EXPECT_EXIT({ ops::gemm(a, false, b, false); },
                ::testing::ExitedWithCode(1), "2-D operands");
}

TEST(EdgeOps, SliceOutOfRangeIsFatal)
{
    Tensor a = Tensor::zeros(Shape({2, 3}));
    EXPECT_EXIT({ ops::slice(a, 1, 2, 5); },
                ::testing::ExitedWithCode(1), "slice range");
}

TEST(EdgeOps, ConcatExtentMismatchIsFatal)
{
    Tensor a = Tensor::zeros(Shape({2, 3}));
    Tensor b = Tensor::zeros(Shape({3, 3}));
    EXPECT_EXIT({ ops::concat({a, b}, 1); },
                ::testing::ExitedWithCode(1), "extent mismatch");
}

TEST(EdgeOps, EmbeddingOutOfVocabIsFatal)
{
    Tensor table = Tensor::zeros(Shape({4, 2}));
    Tensor ids(Shape({1}), {9.0f});
    EXPECT_EXIT({ ops::embeddingLookup(table, ids); },
                ::testing::ExitedWithCode(1), "out of vocab");
}

TEST(EdgeOps, CrossEntropyLabelOutOfVocabIsFatal)
{
    Tensor logits = Tensor::zeros(Shape({1, 3}));
    Tensor labels(Shape({1}), {5.0f});
    EXPECT_EXIT({ ops::crossEntropy(logits, labels); },
                ::testing::ExitedWithCode(1), "out of vocab");
}

TEST(EdgeOps, SoftmaxOnSingleColumnIsOne)
{
    Tensor x(Shape({3, 1}), {-4.0f, 0.0f, 7.0f});
    Tensor y = ops::softmaxLastAxis(x);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(y.at(i), 1.0f);
}

TEST(EdgeOps, ReverseLengthOneIsIdentity)
{
    Tensor a(Shape({1, 2, 2}), {1, 2, 3, 4});
    Tensor r = ops::reverseAxis(a, 0);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(r.at(i), a.at(i));
}

// ----------------------------------------------------------------------
// Graph & executor
// ----------------------------------------------------------------------

TEST(EdgeGraph, Apply1OnMultiOutputOpPanics)
{
    graph::Graph g;
    graph::Val x = g.placeholder(Shape({2, 4}), "x");
    EXPECT_DEATH({ g.apply1(ol::layerNorm(), {x}); },
                 "apply1 on multi-output op");
}

TEST(EdgeGraph, ExecutorRejectsWrongFeedShape)
{
    graph::Graph g;
    graph::Val x = g.placeholder(Shape({2, 2}), "x");
    graph::Val y = g.apply1(ol::tanhOp(), {x});
    graph::Executor ex({y});
    graph::FeedDict feed;
    feed[x.node] = Tensor::zeros(Shape({3, 3}));
    EXPECT_EXIT({ ex.run(feed); }, ::testing::ExitedWithCode(1),
                "has shape");
}

TEST(EdgeGraph, GemmShapeInferenceMismatchIsFatal)
{
    graph::Graph g;
    graph::Val a = g.placeholder(Shape({2, 3}), "a");
    graph::Val b = g.placeholder(Shape({5, 7}), "b");
    EXPECT_EXIT({ g.apply1(ol::gemm(false, false), {a, b}); },
                ::testing::ExitedWithCode(1), "inner dim mismatch");
}

// ----------------------------------------------------------------------
// RNG / tables / presets
// ----------------------------------------------------------------------

TEST(EdgeRng, UniformIntOfOneIsAlwaysZero)
{
    Rng rng(2);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(rng.uniformInt(1), 0u);
}

TEST(EdgeRng, ZipfSupportOneIsAlwaysZero)
{
    Rng rng(3);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(rng.zipf(1), 0u);
}

TEST(EdgeRng, ZipfCacheHandlesChangingSupport)
{
    Rng rng(4);
    EXPECT_LT(rng.zipf(10), 10u);
    EXPECT_LT(rng.zipf(1000), 1000u);
    EXPECT_LT(rng.zipf(10), 10u);
}

TEST(EdgeTable, RowArityMismatchIsFatal)
{
    Table t({"a", "b"});
    EXPECT_EXIT({ t.addRow({"only-one"}); },
                ::testing::ExitedWithCode(1), "cells");
}

TEST(EdgeVocab, PresetsMatchDatasetStatistics)
{
    EXPECT_EQ(data::Vocab::ptb().size, 10000);
    EXPECT_EQ(data::Vocab::wikitext2().size, 33278);
    EXPECT_EQ(data::Vocab::iwslt15En().size, 17191);
    EXPECT_EQ(data::Vocab::iwslt15Vi().size, 7709);
    EXPECT_EQ(data::Vocab::kPad, 0);
    EXPECT_GT(data::Vocab::ptb().numWords(), 9000);
}

TEST(EdgeLayout, TinyBatchStillDecides)
{
    // Both forms of a B=1, H=32 recurrent projection ([B x 4H] and
    // [4H x B], K = H) still get a positive modelled time.
    const gpusim::GpuSpec gpu = gpusim::GpuSpec::titanXp();
    EXPECT_GT(gpusim::estimateGemm({1, 4 * 32, 32}, gpu).time_us, 0.0);
    EXPECT_GT(gpusim::estimateGemm({4 * 32, 1, 32}, gpu).time_us, 0.0);
}

TEST(EdgeGpu, MemoryCapacitiesMatchDatasheets)
{
    EXPECT_EQ(gpusim::GpuSpec::titanXp().mem_capacity_bytes,
              12ll << 30);
    EXPECT_EQ(gpusim::GpuSpec::rtx2080Ti().mem_capacity_bytes,
              11ll << 30);
}

} // namespace
} // namespace echo
