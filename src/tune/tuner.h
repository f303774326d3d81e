/**
 * @file
 * The shape-specialized GEMM autotuner.
 *
 * Ties the pieces together: candidate enumeration (search_space),
 * wall-clock measurement (measure), the persistent cache (cache), and
 * the in-process schedule registry (tensor/gemm_schedule).  One
 * Autotuner owns one cache file; ensureGlobalTuner() wires a
 * process-wide instance into ops::gemm via the resolver hook so a
 * registry miss in ECHO_TUNE=search mode triggers tune-on-first-miss.
 *
 * Search contract: the winner is the candidate with the smallest
 * median measured time whose output is BYTE-IDENTICAL to
 * gemmReference() on the measurement operands.  The bitwise design of
 * the blocked kernel makes that validation a tautology (see
 * gemm_schedule.h), but the tuner still checks — it is the last line
 * of defense if a future micro-kernel breaks the contract, and a
 * validation failure (tune.validate_reject) fails loudly in tests.
 */
#ifndef ECHO_TUNE_TUNER_H
#define ECHO_TUNE_TUNER_H

#include <mutex>
#include <string>
#include <vector>

#include "tune/cache.h"
#include "tune/search_space.h"

namespace echo::tune {

/** Tuner configuration (defaults follow the environment). */
struct TuneOptions
{
    /** Cache file; empty means defaultCachePath(). */
    std::string cache_path;
    /** Candidates measured per key after cost-model pruning. */
    int max_candidates = 16;
    int warmup = 1;
    int reps = 3;
    /** Persist the cache after every successful search. */
    bool persist = true;
};

/** One tuned decision with its evidence (echo-tune --dump rows). */
struct TuneOutcome
{
    ops::GemmKey key;
    ops::GemmSchedule best;
    double best_seconds = 0.0;
    double fixed_seconds = 0.0;
    int candidates_measured = 0;
    /** True when the decision came from a search in this process (vs
     *  loaded from the cache file). */
    bool searched = false;

    double speedup() const
    {
        return best_seconds > 0.0 ? fixed_seconds / best_seconds : 1.0;
    }
};

/**
 * Shape-specialized GEMM autotuner over one cache file.  Thread-safe;
 * concurrent resolve() calls serialize searches.
 */
class Autotuner
{
  public:
    explicit Autotuner(TuneOptions options = {});

    /**
     * The schedule to use for @p key: registry hit -> that; cache-file
     * hit (matching ISA/width) -> registered and returned; otherwise a
     * measured search (tune-on-first-miss).  Every decision ends up in
     * the registry, so subsequent ops::gemm calls hit without the
     * tuner.
     */
    ops::GemmSchedule resolve(const ops::GemmKey &key);

    /**
     * Force a measured search for @p key (ignores registry and cache),
     * register and persist the winner.  @p key.threads should match
     * the current global pool.
     */
    TuneOutcome tuneKey(const ops::GemmKey &key);

    /**
     * resolve() every key, searching only the ones with no usable
     * registry/cache entry.  Returns the number of searches run.
     */
    int warmKeys(const std::vector<ops::GemmKey> &keys);

    /** Decisions this tuner has made or loaded, for inspection. */
    std::vector<TuneOutcome> outcomes() const;

    const std::string &cachePath() const { return cache_path_; }

  private:
    /** Load the cache file once; registry-inserts matching entries. */
    void ensureLoadedLocked();
    TuneOutcome searchLocked(const ops::GemmKey &key);
    void upsertEntryLocked(const CacheEntry &entry);

    TuneOptions options_;
    std::string cache_path_;
    mutable std::mutex mu_;
    bool loaded_ = false;
    /** Every entry from the cache file (all ISAs) plus new decisions —
     *  what each save writes back, so foreign-ISA entries survive. */
    std::vector<CacheEntry> entries_;
    std::vector<TuneOutcome> outcomes_;
};

/**
 * The process-wide tuner (created on first use with default options).
 * ensureGlobalTuner() additionally applies the ECHO_TUNE policy: in
 * kCache and kSearch modes the cache file is loaded into the registry;
 * in kSearch mode the resolver hook is installed so misses tune on
 * first use.  Idempotent and cheap; executors and serving sessions
 * call it at graph-construction time.
 */
Autotuner &globalTuner();
void ensureGlobalTuner();

} // namespace echo::tune

#endif // ECHO_TUNE_TUNER_H
