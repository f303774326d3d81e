#include "tensor/tensor.h"

#include <cmath>

#include "core/logging.h"
#include "core/rng.h"

namespace echo {

void
Tensor::allocate(float value)
{
    auto vec = std::make_shared<std::vector<float>>(
        static_cast<size_t>(shape_.numel()), value);
    data_ = vec->data();
    storage_ = std::move(vec);
}

Tensor::Tensor(Shape shape) : shape_(shape)
{
    allocate(0.0f);
}

Tensor::Tensor(Shape shape, float value) : shape_(shape)
{
    allocate(value);
}

Tensor::Tensor(Shape shape, std::vector<float> values) : shape_(shape)
{
    ECHO_REQUIRE(static_cast<int64_t>(values.size()) == shape_.numel(),
                 "value count ", values.size(), " != shape ",
                 shape_.toString());
    auto vec = std::make_shared<std::vector<float>>(std::move(values));
    data_ = vec->data();
    storage_ = std::move(vec);
}

Tensor
Tensor::zeros(Shape shape)
{
    return Tensor(shape, 0.0f);
}

Tensor
Tensor::full(Shape shape, float value)
{
    return Tensor(shape, value);
}

Tensor
Tensor::uniform(Shape shape, Rng &rng, float lo, float hi)
{
    Tensor t(shape);
    rng.fillUniform(t.data(), t.numel(), lo, hi);
    return t;
}

Tensor
Tensor::gaussian(Shape shape, Rng &rng, float mean, float stddev)
{
    Tensor t(shape);
    float *p = t.data();
    const int64_t n = t.numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = static_cast<float>(rng.gaussian(mean, stddev));
    return t;
}

float *
Tensor::checkedData() const
{
    ECHO_CHECK(data_, "access to undefined tensor");
    return data_;
}

float &
Tensor::at(int64_t i)
{
    ECHO_CHECK(i >= 0 && i < numel(), "flat index out of range");
    return data()[i];
}

float
Tensor::at(int64_t i) const
{
    ECHO_CHECK(i >= 0 && i < numel(), "flat index out of range");
    return data()[i];
}

float &
Tensor::at(int64_t i, int64_t j)
{
    ECHO_CHECK(shape_.ndim() == 2, "2-D access on ", shape_.toString());
    return data()[i * shape_[1] + j];
}

float
Tensor::at(int64_t i, int64_t j) const
{
    ECHO_CHECK(shape_.ndim() == 2, "2-D access on ", shape_.toString());
    return data()[i * shape_[1] + j];
}

float &
Tensor::at(int64_t i, int64_t j, int64_t k)
{
    ECHO_CHECK(shape_.ndim() == 3, "3-D access on ", shape_.toString());
    return data()[(i * shape_[1] + j) * shape_[2] + k];
}

float
Tensor::at(int64_t i, int64_t j, int64_t k) const
{
    ECHO_CHECK(shape_.ndim() == 3, "3-D access on ", shape_.toString());
    return data()[(i * shape_[1] + j) * shape_[2] + k];
}

Tensor
Tensor::reshape(Shape new_shape) const
{
    ECHO_REQUIRE(new_shape.numel() == numel(), "reshape ",
                 shape_.toString(), " -> ", new_shape.toString(),
                 " changes element count");
    Tensor t;
    t.storage_ = storage_;
    t.data_ = data_;
    t.shape_ = new_shape;
    return t;
}

Tensor
Tensor::clone() const
{
    Tensor t;
    t.shape_ = shape_;
    if (data_) {
        auto vec = std::make_shared<std::vector<float>>(data_,
                                                        data_ + numel());
        t.data_ = vec->data();
        t.storage_ = std::move(vec);
    }
    return t;
}

void
Tensor::fill(float value)
{
    float *p = data();
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i)
        p[i] = value;
}

double
Tensor::sum() const
{
    const float *p = data();
    const int64_t n = numel();
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i)
        acc += p[i];
    return acc;
}

bool
Tensor::allFinite() const
{
    const float *p = data();
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

} // namespace echo
