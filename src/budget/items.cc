#include "budget/items.h"

#include <algorithm>

#include "core/logging.h"

namespace echo::budget {

ItemSet
enumerateItems(const std::vector<Val> &fetches,
               const pass::PassConfig &config)
{
    ItemSet set;
    set.config = config;
    std::vector<pass::FeatureMap> fms = pass::findFeatureMaps(fetches);

    std::vector<pass::Candidate> candidates =
        pass::enumerateCandidates(fms, fetches, config);
    set.index = pass::CostIndex(std::move(fms), candidates, config.gpu);
    set.items.reserve(candidates.size());
    for (pass::Candidate &cand : candidates) {
        Item item;
        item.step = cand.target.val.node->time_step;
        const pass::SetCost solo =
            pass::evaluateAcceptedSet({&cand}, set.index, config.fuse_replay);
        item.solo_saved = solo.bytes_saved;
        item.solo_added = solo.bytes_added;
        item.solo_replay_us = solo.replay_time_us;
        item.cand = std::move(cand);
        set.items.push_back(std::move(item));
    }

    // Chain order: ascending time step (step -1 values — outside the
    // recurrence, e.g. the once-per-sentence key projection — first),
    // then target node id for determinism.
    std::sort(set.items.begin(), set.items.end(),
              [](const Item &a, const Item &b) {
                  if (a.step != b.step)
                      return a.step < b.step;
                  return a.cand.target.val.node->id <
                         b.cand.target.val.node->id;
              });
    return set;
}

pass::SetCost
costOf(const ItemSet &set, const std::vector<int> &chosen)
{
    std::vector<const pass::Candidate *> accepted;
    accepted.reserve(chosen.size());
    for (int i : chosen) {
        ECHO_CHECK(i >= 0 && static_cast<size_t>(i) < set.items.size(),
                   "costOf: item index ", i, " out of range");
        accepted.push_back(&set.items[static_cast<size_t>(i)].cand);
    }
    return pass::evaluateAcceptedSet(accepted, set.index,
                                     set.config.fuse_replay);
}

} // namespace echo::budget
