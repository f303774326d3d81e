#include "models/cnn_proxy.h"

#include "core/logging.h"
#include "graph/autodiff.h"
#include "graph/ops/oplib.h"

namespace echo::models {

namespace ol = graph::oplib;
using graph::Graph;
using graph::TagScope;
using graph::Val;

CnnModel::CnnModel(const CnnConfig &config)
    : graph_(std::make_unique<Graph>())
{
    Graph &g = *graph_;
    const int64_t b = config.batch;

    images_ = g.placeholder(Shape({b, 3, config.image, config.image}),
                            "images");
    labels_ = g.placeholder(Shape({b}), "labels");

    auto conv = [&](Val x, int64_t out_ch, int stride,
                    const std::string &name) {
        const Shape &xs = graph::Graph::shapeOf(x);
        const Val w = g.weight(Shape({out_ch, xs[1], 3, 3}), name);
        weights_.emplace_back(name, w);
        return g.apply1(ol::reluOp(),
                        {g.apply1(ol::conv2d(stride), {x, w})});
    };

    Val x;
    {
        TagScope tag(g, "stem");
        x = conv(images_, config.base_channels, 2, "stem.conv");
    }

    int64_t channels = config.base_channels;
    for (int64_t stage = 0; stage < config.stages; ++stage) {
        TagScope tag(g, "stage" + std::to_string(stage));
        for (int64_t block = 0; block < config.blocks_per_stage;
             ++block) {
            const int stride = block == 0 ? 2 : 1;
            const int64_t out_ch =
                block == 0 ? channels * 2 : channels;
            // Appended piecewise: GCC 12 warns (-Wrestrict, a false
            // positive) on a literal + std::string temporary here.
            std::string name = "s";
            name += std::to_string(stage);
            name += ".b";
            name += std::to_string(block);
            name += ".conv";
            x = conv(x, out_ch, stride, name);
            channels = out_ch;
        }
    }

    {
        TagScope tag(g, "output");
        const Val pooled = g.apply1(ol::globalAvgPool(), {x});
        const Val w_fc =
            g.weight(Shape({config.classes, channels}), "fc.weight");
        const Val b_fc = g.weight(Shape({config.classes}), "fc.bias");
        weights_.emplace_back("fc.weight", w_fc);
        weights_.emplace_back("fc.bias", b_fc);
        const Val logits = g.apply1(
            ol::addBias(),
            {g.apply1(ol::gemm(false, true), {pooled, w_fc}), b_fc});
        loss_ = g.apply1(ol::crossEntropyLoss(), {logits, labels_},
                         "cnn_loss");
    }

    std::vector<Val> wrt;
    for (const auto &[name, val] : weights_)
        wrt.push_back(val);
    const graph::GradientResult gr = graph::backward(g, loss_, wrt);
    weight_grads_ = gr.weight_grads;
    fetches_ = {loss_};
    fetches_.insert(fetches_.end(), weight_grads_.begin(),
                    weight_grads_.end());
}

ParamStore
CnnModel::initialParams(Rng &rng) const
{
    return initParams(weights_, rng);
}

graph::FeedDict
CnnModel::makeFeed(const ParamStore &params, const Tensor &images,
                   const Tensor &labels) const
{
    graph::FeedDict feed;
    feedParams(feed, weights_, params);
    feed[images_.node] = images;
    feed[labels_.node] = labels;
    return feed;
}

} // namespace echo::models
