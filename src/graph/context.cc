#include "graph/context.hh"

#include "common/logging.hh"

namespace graph
{

ContextManager::ContextManager()
{
    onReset();
}

ContextId
ContextManager::intern(const Tag &caller, std::uint32_t site,
                       std::uint16_t target_cb,
                       const std::vector<Dest> &result_dests,
                       std::uint16_t expected_exits)
{
    const Key key{caller.ctx, caller.iter, site};
    if (auto it = interned_.find(key); it != interned_.end())
        return it->second;

    const ContextId id = next_++;
    SIM_ASSERT_MSG(next_ != 0, "context id space exhausted");
    interned_.emplace(key, id);
    ContextInfo info;
    info.caller = caller;
    info.targetCb = target_cb;
    info.resultDests = result_dests;
    info.remainingExits = expected_exits;
    live_.emplace(id, std::move(info));
    created_.inc();
    peak_ = std::max<std::uint64_t>(peak_, live_.size());
    return id;
}

void
ContextManager::noteExit(ContextId id)
{
    auto it = live_.find(id);
    SIM_ASSERT_MSG(it != live_.end(), "exit from dead context {}", id);
    if (it->second.remainingExits == 0)
        return; // untracked loop: never reclaimed
    if (--it->second.remainingExits == 0) {
        live_.erase(it);
        released_.inc();
    }
}

const ContextInfo &
ContextManager::info(ContextId id) const
{
    auto it = live_.find(id);
    SIM_ASSERT_MSG(it != live_.end(),
                   "lookup of dead or unknown context {}", id);
    return it->second;
}

void
ContextManager::release(ContextId id)
{
    SIM_ASSERT_MSG(id != rootContext, "cannot release the root context");
    live_.erase(id);
    released_.inc();
}

std::uint32_t
ContextManager::rootIter(ContextId id) const
{
    std::uint32_t iter = 1;
    while (id != rootContext) {
        auto it = live_.find(id);
        if (it == live_.end())
            return 0; // released along the chain: unattributable
        iter = it->second.caller.iter;
        id = it->second.caller.ctx;
    }
    return iter;
}

void
ContextManager::onReset()
{
    live_.emplace(rootContext, ContextInfo{});
    next_ = rootContext + 1;
    peak_ = 1;
}

} // namespace graph
