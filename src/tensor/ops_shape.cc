#include <cstring>

#include "core/logging.h"
#include "tensor/ops.h"

namespace echo::ops {

Tensor
transpose2d(const Tensor &a)
{
    ECHO_REQUIRE(a.shape().ndim() == 2, "transpose2d needs a matrix");
    const int64_t m = a.shape()[0];
    const int64_t n = a.shape()[1];
    Tensor c(Shape({n, m}));
    const float *ap = a.data();
    float *cp = c.data();
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            cp[j * m + i] = ap[i * n + j];
    return c;
}

Tensor
permute3d(const Tensor &a, const std::vector<int> &perm)
{
    ECHO_REQUIRE(a.shape().ndim() == 3 && perm.size() == 3,
                 "permute3d needs a 3-D tensor and a 3-long permutation");
    bool seen[3] = {false, false, false};
    for (int p : perm) {
        ECHO_REQUIRE(p >= 0 && p < 3 && !seen[p], "bad permutation");
        seen[p] = true;
    }
    const int64_t d[3] = {a.shape()[0], a.shape()[1], a.shape()[2]};
    Tensor c(Shape({d[perm[0]], d[perm[1]], d[perm[2]]}));
    const float *ap = a.data();
    float *cp = c.data();
    int64_t idx[3];
    for (idx[0] = 0; idx[0] < d[0]; ++idx[0])
        for (idx[1] = 0; idx[1] < d[1]; ++idx[1])
            for (idx[2] = 0; idx[2] < d[2]; ++idx[2]) {
                const int64_t src =
                    (idx[0] * d[1] + idx[1]) * d[2] + idx[2];
                const int64_t dst = (idx[perm[0]] * d[perm[1]] +
                                     idx[perm[1]]) * d[perm[2]] +
                                    idx[perm[2]];
                cp[dst] = ap[src];
            }
    return c;
}

Tensor
concat(const std::vector<Tensor> &parts, int axis)
{
    ECHO_REQUIRE(!parts.empty(), "concat of nothing");
    const Shape &first = parts[0].shape();
    const int nd = first.ndim();
    if (axis < 0)
        axis += nd;
    ECHO_REQUIRE(axis >= 0 && axis < nd, "concat axis out of range");

    int64_t cat_dim = 0;
    for (const Tensor &p : parts) {
        ECHO_REQUIRE(p.shape().ndim() == nd, "concat rank mismatch");
        for (int d = 0; d < nd; ++d) {
            if (d != axis) {
                ECHO_REQUIRE(p.shape()[d] == first[d],
                             "concat extent mismatch on axis ", d);
            }
        }
        cat_dim += p.shape()[axis];
    }

    Tensor c{first.withDim(axis, cat_dim)};

    // Copy part by part: outer = product of dims before axis,
    // inner = product of dims after axis.
    int64_t outer = 1;
    for (int d = 0; d < axis; ++d)
        outer *= first[d];
    int64_t inner = 1;
    for (int d = axis + 1; d < nd; ++d)
        inner *= first[d];

    int64_t dst_axis_off = 0;
    for (const Tensor &p : parts) {
        const int64_t p_axis = p.shape()[axis];
        for (int64_t o = 0; o < outer; ++o) {
            const float *src = p.data() + o * p_axis * inner;
            float *dst = c.data() +
                         (o * cat_dim + dst_axis_off) * inner;
            std::memcpy(dst, src,
                        static_cast<size_t>(p_axis * inner) *
                            sizeof(float));
        }
        dst_axis_off += p_axis;
    }
    return c;
}

Tensor
slice(const Tensor &a, int axis, int64_t begin, int64_t end)
{
    const int nd = a.shape().ndim();
    if (axis < 0)
        axis += nd;
    ECHO_REQUIRE(axis >= 0 && axis < nd, "slice axis out of range");
    const int64_t extent = a.shape()[axis];
    ECHO_REQUIRE(0 <= begin && begin < end && end <= extent,
                 "slice range [", begin, ", ", end, ") out of [0, ",
                 extent, ")");

    Tensor c{a.shape().withDim(axis, end - begin)};

    int64_t outer = 1;
    for (int d = 0; d < axis; ++d)
        outer *= a.shape()[d];
    int64_t inner = 1;
    for (int d = axis + 1; d < nd; ++d)
        inner *= a.shape()[d];

    const int64_t span = end - begin;
    for (int64_t o = 0; o < outer; ++o) {
        const float *src = a.data() + (o * extent + begin) * inner;
        float *dst = c.data() + o * span * inner;
        std::memcpy(dst, src,
                    static_cast<size_t>(span * inner) * sizeof(float));
    }
    return c;
}

Tensor
reverseAxis(const Tensor &a, int axis)
{
    const int nd = a.shape().ndim();
    if (axis < 0)
        axis += nd;
    ECHO_REQUIRE(axis >= 0 && axis < nd, "reverse axis out of range");
    const int64_t extent = a.shape()[axis];

    int64_t outer = 1;
    for (int d = 0; d < axis; ++d)
        outer *= a.shape()[d];
    int64_t inner = 1;
    for (int d = axis + 1; d < nd; ++d)
        inner *= a.shape()[d];

    Tensor c(a.shape());
    for (int64_t o = 0; o < outer; ++o)
        for (int64_t i = 0; i < extent; ++i) {
            const float *src = a.data() + (o * extent + i) * inner;
            float *dst =
                c.data() + (o * extent + (extent - 1 - i)) * inner;
            std::memcpy(dst, src,
                        static_cast<size_t>(inner) * sizeof(float));
        }
    return c;
}

} // namespace echo::ops
