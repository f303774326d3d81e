#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>

#include "obs/counters.h"

// ---------------------------------------------------------------------
// Heap-allocation counter.  The per-iteration allocation count is
// measured from outside the program: every global operator new in this
// binary ticks one relaxed counter while armed.
// ---------------------------------------------------------------------

namespace {
std::atomic<int64_t> g_allocs{0};
std::atomic<bool> g_allocs_armed{false};

void *
countedAlloc(std::size_t n)
{
    if (g_allocs_armed.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return operator new(n, std::nothrow);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace perfbench {

void
armAllocCounter(bool on)
{
    g_allocs_armed.store(on, std::memory_order_relaxed);
}

int64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

int64_t
peakRssBytes()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            int64_t kb = 0;
            fields >> kb;
            return kb * 1024;
        }
    }
    return 0;
}

namespace {
constexpr double kRotateMs = 200.0;
} // namespace

CpuRotation::CpuRotation(bool enabled) : since_(Clock::now())
{
    CPU_ZERO(&original_);
    if (!enabled || sched_getaffinity(0, sizeof(original_), &original_) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &original_))
            cpus_.push_back(c);
    if (cpus_.size() < 2)
        cpus_.clear();
}

void
CpuRotation::restore()
{
    if (cpus_.empty())
        return;
    sched_setaffinity(0, sizeof(original_), &original_);
    cpus_.clear();
}

void
CpuRotation::next()
{
    since_ = Clock::now();
    if (cpus_.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[at_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

void
CpuRotation::tick()
{
    if (msBetween(since_, Clock::now()) >= kRotateMs)
        next();
}

int64_t
counterValue(const char *name)
{
    return echo::obs::counter(name).value();
}

std::vector<SpanRec>
collectSpans(const std::vector<echo::obs::TraceEvent> &events)
{
    // Events of one thread are appended in order, so a per-thread
    // stack pairs each 'E' with its 'B'.
    std::map<uint32_t, std::vector<SpanRec>> open;
    std::vector<SpanRec> spans;
    for (const echo::obs::TraceEvent &e : events) {
        if (e.ph == 'B') {
            SpanRec s;
            s.cat = e.cat;
            s.name = e.name;
            s.tid = e.tid;
            s.t0 = e.ts_ns;
            for (const echo::obs::Arg &a : e.args)
                if (std::string(a.key) == "phase")
                    s.phase = a.s;
            open[e.tid].push_back(std::move(s));
        } else if (e.ph == 'E') {
            std::vector<SpanRec> &stack = open[e.tid];
            if (stack.empty())
                continue;
            SpanRec s = std::move(stack.back());
            stack.pop_back();
            s.t1 = e.ts_ns;
            spans.push_back(std::move(s));
        }
    }
    return spans;
}

double
sumMs(const std::vector<SpanRec> &spans, const char *cat,
      const char *name)
{
    double ms = 0.0;
    for (const SpanRec &s : spans)
        if (s.cat == cat && s.name == name)
            ms += s.ms();
    return ms;
}

int64_t
countSpans(const std::vector<SpanRec> &spans, const char *cat,
           const char *name)
{
    int64_t n = 0;
    for (const SpanRec &s : spans)
        if (s.cat == cat && s.name == name)
            ++n;
    return n;
}

namespace {

enum class Row
{
    kGemm,
    kFusedEw,
    kElementwise,
    kShapeCopy,
    kNn,
    kReplay,
};

/** Layer row of one executor op span.  Replay (recompute-phase) ops
 *  form their own row whatever their kind. */
Row
rowOf(const SpanRec &s)
{
    static const std::set<std::string> shape_copy = {
        "reshape", "transpose2d",      "permute3d",       "concat",
        "slice",   "slice_grad",       "sequence_reverse", "constant",
        "broadcast_to_bt",
    };
    static const std::set<std::string> nn = {
        "softmax",         "softmax_grad",
        "layer_norm",      "layer_norm_grad",
        "cross_entropy",   "cross_entropy_grad",
        "embedding",       "embedding_grad",
        "conv2d",          "conv2d_grad_input",
        "conv2d_grad_weight", "global_avg_pool",
        "global_avg_pool_grad", "fused_lstm_cudnn",
        "fused_lstm_eco",  "fused_lstm_cudnn_grad",
        "fused_lstm_eco_grad",
    };
    if (s.phase == "recompute")
        return Row::kReplay;
    if (s.name == "gemm" || s.name == "bmm")
        return Row::kGemm;
    if (s.name == "fused_ew")
        return Row::kFusedEw;
    if (shape_copy.count(s.name))
        return Row::kShapeCopy;
    if (nn.count(s.name))
        return Row::kNn;
    return Row::kElementwise;
}

bool
isRunSpan(const SpanRec &s)
{
    return s.cat == "exec" &&
           (s.name == "run.serial" || s.name == "run.parallel");
}

} // namespace

ExecBreakdown
execBreakdown(const std::vector<SpanRec> &spans)
{
    std::vector<const SpanRec *> runs, ops;
    for (const SpanRec &s : spans) {
        if (s.cat != "exec")
            continue;
        (isRunSpan(s) ? runs : ops).push_back(&s);
    }
    const auto by_start = [](const SpanRec *a, const SpanRec *b) {
        return a->t0 < b->t0;
    };
    std::sort(runs.begin(), runs.end(), by_start);
    std::sort(ops.begin(), ops.end(), by_start);

    ExecBreakdown b;
    b.runs = static_cast<int64_t>(runs.size());
    b.ops = static_cast<int64_t>(ops.size());
    for (size_t i = 1; i < runs.size(); ++i)
        if (runs[i]->t0 < runs[i - 1]->t1)
            ++b.overlapping_runs;

    size_t next_op = 0;
    for (const SpanRec *run : runs) {
        b.run_ms += run->ms();
        // Ops that started before this run belong to no run.
        while (next_op < ops.size() && ops[next_op]->t0 < run->t0)
            b.orphan_ms += ops[next_op++]->ms();
        std::vector<const SpanRec *> inside;
        while (next_op < ops.size() && ops[next_op]->t0 < run->t1) {
            const SpanRec *op = ops[next_op++];
            if (op->t1 > run->t1)
                b.orphan_ms += op->ms();
            else
                inside.push_back(op);
        }

        // Sweep the run's interval: +1 at an op's start, -1 at its end.
        std::vector<std::pair<int64_t, int>> edges;
        edges.reserve(inside.size() * 2);
        for (size_t k = 0; k < inside.size(); ++k) {
            edges.emplace_back(inside[k]->t0, static_cast<int>(k) + 1);
            edges.emplace_back(inside[k]->t1, -static_cast<int>(k) - 1);
        }
        // At equal times starts go first, so a zero-length op is added
        // before it is removed.
        std::sort(edges.begin(), edges.end(),
                  [](const auto &a, const auto &b) {
                      return a.first != b.first ? a.first < b.first
                                                : a.second > b.second;
                  });
        std::vector<int> active;
        int64_t t = run->t0;
        const auto credit = [&](int64_t until) {
            const double ms = static_cast<double>(until - t) * 1e-6;
            if (ms <= 0.0)
                return;
            if (active.empty()) {
                b.dispatch_ms += ms;
                return;
            }
            const double share = ms / static_cast<double>(active.size());
            for (const int k : active) {
                const SpanRec &op = *inside[static_cast<size_t>(k)];
                switch (rowOf(op)) {
                  case Row::kGemm: b.gemm_ms += share; break;
                  case Row::kFusedEw: b.fused_ew_ms += share; break;
                  case Row::kElementwise: b.elementwise_ms += share; break;
                  case Row::kShapeCopy: b.shape_copy_ms += share; break;
                  case Row::kNn: b.nn_ms += share; break;
                  case Row::kReplay: b.replay_ms += share; break;
                }
                if (op.phase == "forward")
                    b.forward_ms += share;
                else if (op.phase == "backward")
                    b.backward_ms += share;
            }
        };
        for (const auto &[when, code] : edges) {
            credit(when);
            t = std::max(t, when);
            if (code > 0)
                active.push_back(code - 1);
            else
                active.erase(std::find(active.begin(), active.end(),
                                       -code - 1));
        }
        credit(run->t1);
    }
    for (; next_op < ops.size(); ++next_op)
        b.orphan_ms += ops[next_op]->ms();
    return b;
}

void
checkClosure(Result &r, const std::string &what, double parts,
             double whole)
{
    const double gap = std::fabs(parts - whole);
    std::printf("closure %-10s parts %.4f ms vs whole %.4f ms "
                "(gap %.3f%%, tolerance %.1f%%)\n",
                what.c_str(), parts, whole,
                whole > 0.0 ? 100.0 * gap / whole : 0.0,
                100.0 * kClosureTolerance);
    if (gap > kClosureTolerance * whole)
        r.fail("closure " + what + ": parts " + std::to_string(parts) +
               " ms vs whole " + std::to_string(whole) + " ms");
}

} // namespace perfbench
