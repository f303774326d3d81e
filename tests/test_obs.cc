/**
 * @file
 * Observability-layer tests:
 *
 *  - trace schema: the exported Trace Event Format JSON parses, every
 *    event carries the required fields, B/E pairs balance per thread,
 *    and per-thread timestamps are monotone,
 *  - counters: exact totals on a hand-built graph, monotone across
 *    runs,
 *  - disabled mode: instrumented code emits no events and allocates no
 *    event buffers.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "graph/executor.h"
#include "graph/ops/oplib.h"
#include "memory/planner.h"
#include "obs/obs.h"

namespace echo::obs {
namespace {

namespace ol = graph::oplib;
using graph::FeedDict;
using graph::Graph;
using graph::Val;

// ----------------------------------------------------------------------
// A minimal JSON reader, just rich enough to validate our own export.
// ----------------------------------------------------------------------

struct JsonValue
{
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    field(const std::string &key) const
    {
        for (const auto &[k, v] : fields)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** Parse the whole document; false on any syntax error. */
    bool
    parse(JsonValue &out)
    {
        pos_ = 0;
        if (!parseValue(out))
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                char esc = text_[pos_++];
                switch (esc) {
                  case '"':
                  case '\\':
                  case '/':
                    out += esc;
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u':
                    if (pos_ + 4 > text_.size())
                        return false;
                    pos_ += 4; // decoded value irrelevant to the schema
                    out += '?';
                    break;
                  default:
                    return false;
                }
            } else {
                out += c;
            }
        }
        return false;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::kObject;
            skipWs();
            if (consume('}'))
                return true;
            for (;;) {
                std::string key;
                JsonValue val;
                if (!parseString(key) || !consume(':') ||
                    !parseValue(val))
                    return false;
                out.fields.emplace_back(std::move(key),
                                        std::move(val));
                if (consume(','))
                    continue;
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::kArray;
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                JsonValue val;
                if (!parseValue(val))
                    return false;
                out.items.push_back(std::move(val));
                if (consume(','))
                    continue;
                return consume(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            return parseString(out.str);
        }
        if (text_.compare(pos_, 4, "true") == 0) {
            out.kind = JsonValue::Kind::kBool;
            out.b = true;
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out.kind = JsonValue::Kind::kBool;
            pos_ += 5;
            return true;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return true;
        }
        // Number.
        char *end = nullptr;
        out.num = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_)
            return false;
        out.kind = JsonValue::Kind::kNumber;
        pos_ = static_cast<size_t>(end - text_.c_str());
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

// ----------------------------------------------------------------------
// Fixtures
// ----------------------------------------------------------------------

/** y = tanh(x + w) * (x + w): 3 op nodes, 1 placeholder, 1 weight. */
struct TinyModel
{
    Graph g;
    Val x, w, y;

    TinyModel()
    {
        x = g.placeholder(Shape({2, 3}), "x");
        w = g.weight(Shape({2, 3}), "w");
        const Val sum = g.apply1(ol::add(), {x, w});
        const Val t = g.apply1(ol::tanhOp(), {sum});
        y = g.apply1(ol::mul(), {sum, t});
    }

    FeedDict
    feed() const
    {
        Rng rng(3);
        FeedDict f;
        f[x.node] = Tensor::uniform(Shape({2, 3}), rng, -1.f, 1.f);
        f[w.node] = Tensor::uniform(Shape({2, 3}), rng, -1.f, 1.f);
        return f;
    }
};

int64_t
counterValue(const std::string &name)
{
    for (const CounterSample &c : snapshotCounters())
        if (c.name == name)
            return c.value;
    return 0;
}

/** Validate the span/timestamp schema over a set of events. */
void
checkSpanSchema(const std::vector<TraceEvent> &events)
{
    std::map<uint32_t, int> depth;
    std::map<uint32_t, int64_t> last_ts;
    for (const TraceEvent &e : events) {
        EXPECT_TRUE(e.ph == 'B' || e.ph == 'E' || e.ph == 'i' ||
                    e.ph == 'C')
            << "unknown phase " << e.ph;
        auto it = last_ts.find(e.tid);
        if (it != last_ts.end()) {
            EXPECT_GE(e.ts_ns, it->second)
                << "timestamps regressed on tid " << e.tid;
        }
        last_ts[e.tid] = e.ts_ns;
        if (e.ph == 'B')
            ++depth[e.tid];
        if (e.ph == 'E') {
            --depth[e.tid];
            EXPECT_GE(depth[e.tid], 0)
                << "E without matching B on tid " << e.tid;
        }
    }
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
}

// ----------------------------------------------------------------------
// Tests
// ----------------------------------------------------------------------

TEST(Trace, SpansBalanceAcrossThreads)
{
    ThreadPool::setGlobalNumThreads(4);
    startTrace();
    {
        std::vector<ThreadPool::Task> tasks;
        for (int i = 0; i < 16; ++i) {
            tasks.push_back(ThreadPool::global().submit([i] {
                Span outer("test", "outer", {{"i", i}});
                Span inner("test", "inner");
                emitEvent('i', "test", "instant", {{"i", i}});
            }));
        }
        for (const auto &t : tasks)
            t.wait();
    }
    stopTrace();
    const std::vector<TraceEvent> events = snapshotEvents();
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());

    // 16 tasks x (2 B + 2 E + 1 i), plus worker.task spans from the
    // instrumented pool and queue-depth counter samples.
    size_t outers = 0;
    for (const TraceEvent &e : events)
        if (e.ph == 'B' && e.name == "outer")
            ++outers;
    EXPECT_EQ(outers, 16u);
    checkSpanSchema(events);
}

TEST(Trace, ExportedJsonIsSchemaValid)
{
    const std::string path = ::testing::TempDir() + "echo_obs_test.json";
    TinyModel m;
    graph::Executor ex({m.y}, graph::ExecMode::kSerial);

    startTrace(path);
    ex.run(m.feed());
    const std::string json = stopTrace();

    // The returned JSON and the written file are identical.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string file_json((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(json, file_json);
    std::remove(path.c_str());

    JsonValue doc;
    ASSERT_TRUE(JsonParser(json).parse(doc)) << json.substr(0, 200);
    ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
    const JsonValue *events = doc.field("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
    ASSERT_GT(events->items.size(), 0u);

    std::map<double, int> depth;
    std::map<double, double> last_ts;
    for (const JsonValue &e : events->items) {
        ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
        const JsonValue *ph = e.field("ph");
        const JsonValue *ts = e.field("ts");
        const JsonValue *tid = e.field("tid");
        const JsonValue *pid = e.field("pid");
        const JsonValue *name = e.field("name");
        const JsonValue *cat = e.field("cat");
        ASSERT_NE(ph, nullptr);
        ASSERT_EQ(ph->kind, JsonValue::Kind::kString);
        ASSERT_EQ(ph->str.size(), 1u);
        EXPECT_NE(std::string("BEiC").find(ph->str), std::string::npos);
        ASSERT_NE(ts, nullptr);
        ASSERT_EQ(ts->kind, JsonValue::Kind::kNumber);
        ASSERT_NE(tid, nullptr);
        ASSERT_EQ(tid->kind, JsonValue::Kind::kNumber);
        ASSERT_NE(pid, nullptr);
        ASSERT_NE(name, nullptr);
        ASSERT_EQ(name->kind, JsonValue::Kind::kString);
        ASSERT_NE(cat, nullptr);
        const JsonValue *args = e.field("args");
        if (args != nullptr) {
            EXPECT_EQ(args->kind, JsonValue::Kind::kObject);
        }

        if (last_ts.count(tid->num)) {
            EXPECT_GE(ts->num, last_ts[tid->num]);
        }
        last_ts[tid->num] = ts->num;
        if (ph->str == "B")
            ++depth[tid->num];
        if (ph->str == "E") {
            --depth[tid->num];
            ASSERT_GE(depth[tid->num], 0);
        }
    }
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;

    // The op spans of the tiny graph are all present by name.
    size_t add_spans = 0, tanh_spans = 0, mul_spans = 0;
    for (const JsonValue &e : events->items) {
        if (e.field("ph")->str != "B")
            continue;
        const std::string &n = e.field("name")->str;
        add_spans += n == "add";
        tanh_spans += n == "tanh";
        mul_spans += n == "mul";
    }
    EXPECT_EQ(add_spans, 1u);
    EXPECT_EQ(tanh_spans, 1u);
    EXPECT_EQ(mul_spans, 1u);
}

TEST(Counters, ExactOnHandBuiltGraph)
{
    TinyModel m;
    graph::Executor ex({m.y}, graph::ExecMode::kSerial);

    resetCountersForTest();
    ex.run(m.feed());
    EXPECT_EQ(counterValue("exec.ops"), 3);
    EXPECT_EQ(counterValue("exec.runs"), 1);
    EXPECT_EQ(counterValue("exec.replays"), 0);

    // Monotone: a second run adds, never resets.
    ex.run(m.feed());
    EXPECT_EQ(counterValue("exec.ops"), 6);
    EXPECT_EQ(counterValue("exec.runs"), 2);

    // Planner counters: the tiny graph has exactly two transients (the
    // add and tanh outputs; the fetched mul output is persistent),
    // each 2x3 floats aligned up to 256 bytes.
    const auto live = memory::analyzeLiveness({m.y});
    memory::planMemory(live);
    EXPECT_EQ(counterValue("mem.allocs"), 2);
    EXPECT_EQ(counterValue("mem.frees"), 2);
    EXPECT_EQ(counterValue("mem.bytes_allocated"), 512);
    EXPECT_EQ(counterValue("mem.bytes_freed"), 512);
}

TEST(Counters, SnapshotSortedAndTagged)
{
    counter("zz.test_scheduling", CounterKind::kScheduling).add(1);
    counter("aa.test_deterministic").add(2);
    const auto samples = snapshotCounters();
    ASSERT_GE(samples.size(), 2u);
    for (size_t i = 1; i < samples.size(); ++i)
        EXPECT_LT(samples[i - 1].name, samples[i].name);
    bool saw_sched = false, saw_det = false;
    for (const auto &s : samples) {
        if (s.name == "zz.test_scheduling") {
            EXPECT_EQ(s.kind, CounterKind::kScheduling);
            saw_sched = true;
        }
        if (s.name == "aa.test_deterministic") {
            EXPECT_EQ(s.kind, CounterKind::kDeterministic);
            saw_det = true;
        }
    }
    EXPECT_TRUE(saw_sched);
    EXPECT_TRUE(saw_det);
}

TEST(Trace, DisabledModeEmitsNothingAndAllocatesNothing)
{
    ASSERT_FALSE(traceEnabled());
    const size_t buffers_before = debugBufferCount();
    const size_t events_before = snapshotEvents().size();

    TinyModel m;
    graph::Executor ex({m.y}, graph::ExecMode::kSerial);
    ex.run(m.feed());
    const auto live = memory::analyzeLiveness({m.y});
    memory::planMemory(live);
    emitEvent('i', "test", "dropped");
    {
        Span s; // never begun: must stay inert
    }

    EXPECT_EQ(debugBufferCount(), buffers_before);
    EXPECT_EQ(snapshotEvents().size(), events_before);
}

TEST(Trace, RestartClearsPreviousEvents)
{
    startTrace();
    emitEvent('i', "test", "first");
    stopTrace();
    ASSERT_GE(snapshotEvents().size(), 1u);

    startTrace();
    emitEvent('i', "test", "second");
    stopTrace();
    const auto events = snapshotEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "second");
}

} // namespace
} // namespace echo::obs
