/**
 * @file
 * A dense FP32 tensor with shared, contiguous, row-major storage.
 *
 * Tensor is a cheap value type: copies share the underlying buffer
 * (copy-on-nothing semantics — ops always produce fresh tensors, so
 * aliasing is safe).  All numeric work in the library goes through these
 * tensors; the GPU is modelled analytically, so CPU numerics here only
 * need to be correct, not fast, and are kept deliberately simple.
 *
 * Storage is an opaque owner (shared_ptr<void>) plus a raw data
 * pointer; the owner's control block identifies the buffer for caches
 * keyed on it (tensor/pack_cache.h).
 */
#ifndef ECHO_TENSOR_TENSOR_H
#define ECHO_TENSOR_TENSOR_H

#include <memory>
#include <vector>

#include "tensor/shape.h"

namespace echo {

class Rng;

/** Dense FP32 tensor with row-major contiguous storage. */
class Tensor
{
  public:
    /** An empty (shapeless, storage-less) tensor. */
    Tensor() = default;

    /** Allocate a zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Allocate and fill with @p value. */
    Tensor(Shape shape, float value);

    /** Wrap an explicit buffer (must have shape.numel() elements). */
    Tensor(Shape shape, std::vector<float> values);

    /** All-zero tensor. */
    static Tensor zeros(Shape shape);

    /** All-@p value tensor. */
    static Tensor full(Shape shape, float value);

    /** I.i.d. uniform values in [lo, hi). */
    static Tensor uniform(Shape shape, Rng &rng, float lo = -0.1f,
                          float hi = 0.1f);

    /** I.i.d. Gaussian values. */
    static Tensor gaussian(Shape shape, Rng &rng, float mean = 0.0f,
                           float stddev = 1.0f);

    const Shape &shape() const { return shape_; }
    int64_t numel() const { return shape_.numel(); }
    bool defined() const { return data_ != nullptr; }

    float *data() { return checkedData(); }
    const float *data() const { return checkedData(); }

    /**
     * Identity of the underlying storage: two tensors share memory iff
     * their owners share a control block.  Used by caches keyed on the
     * buffer (tensor/pack_cache.h) to detect address reuse.
     */
    const std::shared_ptr<void> &storageOwner() const { return storage_; }

    /**
     * Element access by flat index, bounds-checked on every call.  For
     * cold paths and tests: a per-element loop checks shapes once and
     * then indexes data().
     */
    float &at(int64_t i);
    float at(int64_t i) const;

    /** Element access for 2-D tensors. */
    float &at(int64_t i, int64_t j);
    float at(int64_t i, int64_t j) const;

    /** Element access for 3-D tensors. */
    float &at(int64_t i, int64_t j, int64_t k);
    float at(int64_t i, int64_t j, int64_t k) const;

    /**
     * Same storage viewed under a different shape.
     * @pre new_shape.numel() == numel()
     */
    Tensor reshape(Shape new_shape) const;

    /** Deep copy. */
    Tensor clone() const;

    /** Set every element to @p value. */
    void fill(float value);

    /** Sum of all elements (used by tests and loss reduction). */
    double sum() const;

    /** True when all finite (no NaN/Inf) — used as a training invariant. */
    bool allFinite() const;

  private:
    float *checkedData() const;

    /** Heap-allocate numel floats for shape_, each set to @p value. */
    void allocate(float value);

    std::shared_ptr<void> storage_;
    float *data_ = nullptr;
    Shape shape_;
};

} // namespace echo

#endif // ECHO_TENSOR_TENSOR_H
