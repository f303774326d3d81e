#include "obs/counters.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

namespace echo::obs {

namespace {

struct CounterRegistry
{
    std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> by_name;
};

CounterRegistry &
counterRegistry()
{
    static CounterRegistry *r = new CounterRegistry; // never destroyed
    return *r;
}

} // namespace

Counter &
counter(const char *name, CounterKind kind)
{
    CounterRegistry &r = counterRegistry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.by_name.find(name);
    if (it == r.by_name.end()) {
        it = r.by_name
                 .emplace(name, std::make_unique<Counter>(kind))
                 .first;
    }
    return *it->second;
}

std::vector<CounterSample>
snapshotCounters()
{
    CounterRegistry &r = counterRegistry();
    std::lock_guard<std::mutex> lk(r.mu);
    std::vector<CounterSample> out;
    out.reserve(r.by_name.size());
    for (const auto &[name, c] : r.by_name)
        out.push_back({name, c->value(), c->kind()});
    return out; // std::map iteration is already name-sorted
}

void
resetCountersForTest()
{
    CounterRegistry &r = counterRegistry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (auto &[name, c] : r.by_name)
        c->value_.store(0, std::memory_order_relaxed);
}

} // namespace echo::obs
