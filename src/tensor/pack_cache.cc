#include "tensor/pack_cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/logging.h"
#include "obs/counters.h"
#include "tensor/gemm_pack.h"

namespace echo::ops {

namespace {

/** Everything that determines a pack's bytes and layout. */
struct PackKey
{
    const float *data = nullptr;
    int64_t version = 0;
    bool is_a = false;
    bool trans = false;
    /** Operand extents: (m, k) for A, (k, n) for B. */
    int64_t d0 = 0, d1 = 0;
    /** Blocking: (mc, kc, mr) for A, (nc, kc, nr) for B. */
    int32_t outer_block = 0;
    int32_t kc = 0;
    int32_t tile = 0;
    /** Bit pattern of alpha (folded into A panels; 0 for B). */
    uint32_t alpha_bits = 0;

    bool operator==(const PackKey &o) const = default;
};

struct PackKeyHash
{
    size_t
    operator()(const PackKey &k) const
    {
        size_t h = std::hash<const void *>()(k.data);
        auto mix = [&h](uint64_t v) {
            h ^= std::hash<uint64_t>()(v) + 0x9e3779b97f4a7c15ull +
                 (h << 6) + (h >> 2);
        };
        mix(static_cast<uint64_t>(k.version));
        mix(static_cast<uint64_t>(k.is_a) << 1 |
            static_cast<uint64_t>(k.trans));
        mix(static_cast<uint64_t>(k.d0));
        mix(static_cast<uint64_t>(k.d1));
        mix(static_cast<uint64_t>(k.outer_block));
        mix(static_cast<uint64_t>(k.kc));
        mix(static_cast<uint64_t>(k.tile));
        mix(k.alpha_bits);
        return h;
    }
};

/** One built pack: the panel bytes plus the panel offset table. */
struct PackEntry
{
    std::vector<float> panels;
    std::vector<int64_t> offsets;
    int64_t k_blocks = 0;
};

/** A registered weight storage. */
struct Registration
{
    std::weak_ptr<void> owner;
    int64_t version = 0;
};

struct CacheState
{
    std::mutex mu;
    std::unordered_map<const float *, Registration> registry;
    std::unordered_map<PackKey, std::shared_ptr<const PackEntry>,
                       PackKeyHash>
        entries;
    int64_t resident_bytes = 0;
    int64_t cap_bytes = -1; // resolved lazily from env
    int64_t hits = 0, misses = 0, rejects = 0, invalidations = 0;
};

CacheState &
state()
{
    static CacheState *s = new CacheState();
    return *s;
}

int64_t
defaultCapBytes()
{
    if (const char *env = std::getenv("ECHO_PACK_CACHE_CAP_MB"))
        return std::strtoll(env, nullptr, 10) * (int64_t(1) << 20);
    return int64_t(512) << 20;
}

/** Same-control-block test for shared_ptr/weak_ptr pairs. */
bool
sameOwner(const std::weak_ptr<void> &w, const std::shared_ptr<void> &s)
{
    return !w.owner_before(s) && !s.owner_before(w);
}

/**
 * The registered version of @p t, or -1 when unregistered / stale.
 * Caller holds the lock.  A stale registration (storage freed, address
 * reused by an unrelated tensor) is erased on sight.
 */
/** Erase every pack built from @p data.  Caller holds the lock. */
void
dropEntriesFor(CacheState &st, const float *data)
{
    for (auto e = st.entries.begin(); e != st.entries.end();) {
        if (e->first.data == data) {
            st.resident_bytes -= static_cast<int64_t>(
                e->second->panels.size() * sizeof(float) +
                e->second->offsets.size() * sizeof(int64_t));
            e = st.entries.erase(e);
            ++st.invalidations;
        } else {
            ++e;
        }
    }
}

int64_t
registeredVersion(CacheState &st, const Tensor &t)
{
    auto it = st.registry.find(t.data());
    if (it == st.registry.end())
        return -1;
    if (!sameOwner(it->second.owner, t.storageOwner())) {
        // The registered storage died and the allocator reused its
        // address for an unrelated tensor.  Its packs must go too:
        // a later re-registration restarts at version 0, which would
        // otherwise alias the dead tensor's (address, version) keys.
        st.registry.erase(it);
        dropEntriesFor(st, t.data());
        return -1;
    }
    return it->second.version;
}

void
countHit()
{
    static obs::Counter &c =
        obs::counter("pack_cache.hit", obs::CounterKind::kScheduling);
    c.add(1);
}

void
countMiss(int64_t bytes)
{
    static obs::Counter &c_miss =
        obs::counter("pack_cache.miss", obs::CounterKind::kScheduling);
    static obs::Counter &c_bytes =
        obs::counter("pack_cache.bytes", obs::CounterKind::kScheduling);
    c_miss.add(1);
    c_bytes.add(bytes);
}

/** Build the packed-B panels for the full operand (canonical order:
 *  jc-major, pc-minor, matching CachedPack::offsets indexing). */
std::shared_ptr<const PackEntry>
buildPackedB(const float *b, bool trans_b, int64_t k, int64_t n,
             int64_t kcb, int64_t ncb, int64_t nr)
{
    auto entry = std::make_shared<PackEntry>();
    const int64_t col_blocks = (n + ncb - 1) / ncb;
    const int64_t k_blocks = (k + kcb - 1) / kcb;
    entry->k_blocks = k_blocks;
    entry->offsets.reserve(
        static_cast<size_t>(col_blocks * k_blocks));
    int64_t total = 0;
    for (int64_t cb = 0; cb < col_blocks; ++cb) {
        const int64_t nc_cur = std::min(ncb, n - cb * ncb);
        const int64_t panels = (nc_cur + nr - 1) / nr;
        for (int64_t pb = 0; pb < k_blocks; ++pb) {
            const int64_t kc_cur = std::min(kcb, k - pb * kcb);
            entry->offsets.push_back(total);
            total += panels * nr * kc_cur;
        }
    }
    entry->panels.resize(static_cast<size_t>(total));
    for (int64_t cb = 0; cb < col_blocks; ++cb) {
        const int64_t jc = cb * ncb;
        const int64_t nc_cur = std::min(ncb, n - jc);
        for (int64_t pb = 0; pb < k_blocks; ++pb) {
            const int64_t pc = pb * kcb;
            const int64_t kc_cur = std::min(kcb, k - pc);
            detail::packBPanel(
                b, trans_b, k, n, pc, kc_cur, jc, nc_cur,
                entry->panels.data() +
                    entry->offsets[static_cast<size_t>(
                        cb * k_blocks + pb)],
                nr);
        }
    }
    return entry;
}

/** Packed-A counterpart (ic-major, pc-minor; alpha folded). */
std::shared_ptr<const PackEntry>
buildPackedA(const float *a, bool trans_a, int64_t m, int64_t k,
             float alpha, int64_t mcb, int64_t kcb, int64_t mr)
{
    auto entry = std::make_shared<PackEntry>();
    const int64_t row_blocks = (m + mcb - 1) / mcb;
    const int64_t k_blocks = (k + kcb - 1) / kcb;
    entry->k_blocks = k_blocks;
    entry->offsets.reserve(
        static_cast<size_t>(row_blocks * k_blocks));
    int64_t total = 0;
    for (int64_t rb = 0; rb < row_blocks; ++rb) {
        const int64_t mc_cur = std::min(mcb, m - rb * mcb);
        const int64_t panels = (mc_cur + mr - 1) / mr;
        for (int64_t pb = 0; pb < k_blocks; ++pb) {
            const int64_t kc_cur = std::min(kcb, k - pb * kcb);
            entry->offsets.push_back(total);
            total += panels * mr * kc_cur;
        }
    }
    entry->panels.resize(static_cast<size_t>(total));
    for (int64_t rb = 0; rb < row_blocks; ++rb) {
        const int64_t ic = rb * mcb;
        const int64_t mc_cur = std::min(mcb, m - ic);
        for (int64_t pb = 0; pb < k_blocks; ++pb) {
            const int64_t pc = pb * kcb;
            const int64_t kc_cur = std::min(kcb, k - pc);
            detail::packAPanel(
                a, trans_a, m, k, ic, mc_cur, pc, kc_cur, alpha,
                entry->panels.data() +
                    entry->offsets[static_cast<size_t>(
                        rb * k_blocks + pb)],
                mr);
        }
    }
    return entry;
}

CachedPack
lookupOrBuild(const Tensor &t, const PackKey &key_proto,
              const GemmSchedule &sch, float alpha, CachedPackHold &hold)
{
    CacheState &st = state();
    PackKey key = key_proto;
    std::shared_ptr<const PackEntry> entry;
    {
        std::lock_guard<std::mutex> lk(st.mu);
        const int64_t version = registeredVersion(st, t);
        if (version < 0)
            return {};
        key.version = version;
        auto it = st.entries.find(key);
        if (it != st.entries.end()) {
            entry = it->second;
            ++st.hits;
        }
    }
    if (entry) {
        countHit();
        hold = entry;
        return {entry->panels.data(), entry->offsets.data(),
                entry->k_blocks};
    }

    // Build outside the lock (packing can be slow); a concurrent
    // builder of the same key just wins the insert race — the loser's
    // copy is dropped, both are byte-identical.
    entry = key.is_a ? buildPackedA(t.data(), key.trans, key.d0, key.d1,
                                    alpha, sch.mc, sch.kc, sch.mr)
                     : buildPackedB(t.data(), key.trans, key.d0, key.d1,
                                    sch.kc, sch.nc, sch.nr);
    const int64_t bytes = static_cast<int64_t>(
        entry->panels.size() * sizeof(float) +
        entry->offsets.size() * sizeof(int64_t));
    {
        std::lock_guard<std::mutex> lk(st.mu);
        // Re-validate: the version may have been bumped mid-build.
        const int64_t version = registeredVersion(st, t);
        if (version != key.version)
            return {};
        if (st.cap_bytes < 0)
            st.cap_bytes = defaultCapBytes();
        auto it = st.entries.find(key);
        if (it != st.entries.end()) {
            entry = it->second;
        } else if (st.resident_bytes + bytes > st.cap_bytes) {
            ++st.rejects;
            return {};
        } else {
            st.entries.emplace(key, entry);
            st.resident_bytes += bytes;
            ++st.misses;
        }
    }
    countMiss(bytes);
    hold = entry;
    return {entry->panels.data(), entry->offsets.data(),
            entry->k_blocks};
}

} // namespace

void
registerPackableTensor(const Tensor &t)
{
    if (!t.defined())
        return;
    CacheState &st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    auto [it, fresh] = st.registry.try_emplace(t.data());
    if (!fresh && sameOwner(it->second.owner, t.storageOwner()))
        return; // same storage: keep its version (idempotent)
    // New storage at this address (fresh, or the old registrant died
    // and the address was reused): any surviving packs describe the
    // DEAD tensor's bytes and would be served for version 0 again.
    dropEntriesFor(st, t.data());
    it->second.owner = t.storageOwner();
    it->second.version = 0;
}

void
bumpTensorVersion(const Tensor &t)
{
    if (!t.defined())
        return;
    CacheState &st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    auto it = st.registry.find(t.data());
    if (it == st.registry.end() ||
        !sameOwner(it->second.owner, t.storageOwner()))
        return;
    ++it->second.version;
    // Drop packs of the old contents; the map stays small (a handful
    // of weights x schedules), so a linear sweep is fine.
    dropEntriesFor(st, t.data());
}

CachedPack
lookupPackedB(const Tensor &b, bool trans_b, int64_t k, int64_t n,
              const GemmSchedule &sch, CachedPackHold &hold)
{
    PackKey key;
    key.data = b.data();
    key.is_a = false;
    key.trans = trans_b;
    key.d0 = k;
    key.d1 = n;
    key.outer_block = sch.nc;
    key.kc = sch.kc;
    key.tile = sch.nr;
    return lookupOrBuild(b, key, sch, 0.0f, hold);
}

CachedPack
lookupPackedA(const Tensor &a, bool trans_a, int64_t m, int64_t k,
              float alpha, const GemmSchedule &sch, CachedPackHold &hold)
{
    PackKey key;
    key.data = a.data();
    key.is_a = true;
    key.trans = trans_a;
    key.d0 = m;
    key.d1 = k;
    key.outer_block = sch.mc;
    key.kc = sch.kc;
    key.tile = sch.mr;
    std::memcpy(&key.alpha_bits, &alpha, sizeof(key.alpha_bits));
    return lookupOrBuild(a, key, sch, alpha, hold);
}

PackCacheStats
packCacheStats()
{
    CacheState &st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    PackCacheStats out;
    out.entries = static_cast<int64_t>(st.entries.size());
    out.resident_bytes = st.resident_bytes;
    out.hits = st.hits;
    out.misses = st.misses;
    out.rejects = st.rejects;
    out.invalidations = st.invalidations;
    return out;
}

void
clearPackCacheForTest()
{
    CacheState &st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    st.registry.clear();
    st.entries.clear();
    st.resident_bytes = 0;
    st.hits = st.misses = st.rejects = st.invalidations = 0;
}

} // namespace echo::ops
