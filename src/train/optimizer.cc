#include "train/optimizer.h"

#include <cmath>

#include "core/logging.h"
#include "tensor/pack_cache.h"

namespace echo::train {

namespace {

/**
 * Shape guard run once per tensor before its update loop: @p t (a
 * gradient or a piece of optimizer state) must have @p param's shape.
 * That makes every flat index below param.numel() valid for both, so
 * the loops index raw storage with no per-element check.
 */
void
requireParamShape(const Tensor &t, const Tensor &param,
                  const std::string &name, const char *what)
{
    ECHO_REQUIRE(t.shape() == param.shape(), what, " for parameter '",
                 name, "' has shape ", t.shape().toString(),
                 " but the parameter has shape ",
                 param.shape().toString());
}

/** State for @p name, zero-initialized on first use only. */
Tensor &
stateFor(std::map<std::string, Tensor> &state, const std::string &name,
         const Tensor &param, const char *what)
{
    auto it = state.find(name);
    if (it == state.end())
        it = state.emplace(name, Tensor::zeros(param.shape())).first;
    requireParamShape(it->second, param, name, what);
    return it->second;
}

} // namespace

double
globalNorm(const std::vector<Tensor> &grads)
{
    double sum_sq = 0.0;
    for (const Tensor &g : grads) {
        const float *d = g.data();
        const int64_t n = g.numel();
        for (int64_t i = 0; i < n; ++i)
            sum_sq += static_cast<double>(d[i]) * d[i];
    }
    return std::sqrt(sum_sq);
}

SgdOptimizer::SgdOptimizer(double lr, double momentum, double clip_norm)
    : lr_(lr), momentum_(momentum), clip_norm_(clip_norm)
{
}

double
SgdOptimizer::step(ParamStore &params, const NamedWeights &weights,
                   const std::vector<Tensor> &grads)
{
    ECHO_REQUIRE(weights.size() == grads.size(),
                 "gradient count mismatch");
    const double norm = globalNorm(grads);
    const double scale =
        clip_norm_ > 0.0 && norm > clip_norm_ ? clip_norm_ / norm : 1.0;
    const float fscale = static_cast<float>(scale);
    const float fmom = static_cast<float>(momentum_);
    const float flr = static_cast<float>(lr_);

    for (size_t i = 0; i < weights.size(); ++i) {
        const std::string &name = weights[i].first;
        Tensor &param = params.at(name);
        requireParamShape(grads[i], param, name, "gradient");
        Tensor &vel = stateFor(velocity_, name, param, "SGD velocity");
        float *p = param.data();
        float *v = vel.data();
        const float *gr = grads[i].data();
        const int64_t n = param.numel();
        for (int64_t j = 0; j < n; ++j) {
            const float g = fscale * gr[j];
            v[j] = fmom * v[j] + g;
            p[j] -= flr * v[j];
        }
        // In-place update: invalidate any packed GEMM panels built
        // from this parameter's storage.
        ops::bumpTensorVersion(param);
    }
    return norm;
}

AdamOptimizer::AdamOptimizer(double lr, double beta1, double beta2,
                             double eps, double clip_norm)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      clip_norm_(clip_norm)
{
}

double
AdamOptimizer::step(ParamStore &params, const NamedWeights &weights,
                    const std::vector<Tensor> &grads)
{
    ECHO_REQUIRE(weights.size() == grads.size(),
                 "gradient count mismatch");
    const double norm = globalNorm(grads);
    const double scale =
        clip_norm_ > 0.0 && norm > clip_norm_ ? clip_norm_ / norm : 1.0;
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));

    for (size_t i = 0; i < weights.size(); ++i) {
        const std::string &name = weights[i].first;
        Tensor &param = params.at(name);
        requireParamShape(grads[i], param, name, "gradient");
        float *m = stateFor(m_, name, param, "Adam first moment").data();
        float *v = stateFor(v_, name, param, "Adam second moment").data();
        float *p = param.data();
        const float *gr = grads[i].data();
        const int64_t n = param.numel();
        for (int64_t j = 0; j < n; ++j) {
            const double g = scale * static_cast<double>(gr[j]);
            m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * g);
            v[j] = static_cast<float>(beta2_ * v[j] +
                                      (1.0 - beta2_) * g * g);
            const double m_hat = m[j] / bc1;
            const double v_hat = v[j] / bc2;
            p[j] -= static_cast<float>(lr_ * m_hat /
                                       (std::sqrt(v_hat) + eps_));
        }
        ops::bumpTensorVersion(param);
    }
    return norm;
}

} // namespace echo::train
