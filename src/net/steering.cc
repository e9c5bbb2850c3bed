#include "src/net/steering.hh"

#include <algorithm>

namespace pmill {

SteerFabric::SteerFabric(std::uint32_t num_cores, std::uint32_t table_size,
                         std::uint32_t ring_capacity, TimeNs latency_ns,
                         SimMemory &mem,
                         const std::vector<std::uint32_t> *ring_sockets)
    : num_cores_(num_cores), ring_capacity_(ring_capacity),
      latency_ns_(latency_ns)
{
    PMILL_ASSERT(num_cores >= 1, "steer fabric needs at least one core");
    PMILL_ASSERT(table_size >= 1 && is_pow2(table_size),
                 "steer table size must be a power of two");
    PMILL_ASSERT(ring_capacity >= 1, "steer ring capacity must be >= 1");
    PMILL_ASSERT(latency_ns > 0, "steer latency must be positive");
    PMILL_ASSERT(!ring_sockets || ring_sockets->size() >= num_cores,
                 "ring_sockets must cover every core");
    mask_ = table_size - 1;

    // Round-robin initial spread: bucket i -> core i % N. For
    // power-of-two core counts this reproduces the NIC's legacy
    // `hash % cores` mapping exactly (hash & (table_size-1) preserves
    // hash mod cores when cores divides table_size), so an idle
    // fabric steers nothing until the controller desynchronizes it.
    table_.resize(table_size);
    for (std::uint32_t i = 0; i < table_size; ++i)
        table_[i] = i % num_cores;

    // The table's and rings' simulated addresses feed the cache model;
    // their contents live in table_ and the handoff vectors, so
    // neither gets host pages.
    const std::uint32_t old_home = mem.home_socket();
    table_mem_ = mem.alloc_sparse(std::uint64_t(table_size) * 4,
                                  kCacheLineBytes, Region::kTable);
    ring_mem_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        // Each destination's ring lives on that destination's socket:
        // a cross-socket handoff is a remote store, like pushing into
        // a peer socket's rte_ring.
        if (ring_sockets)
            mem.set_home_socket((*ring_sockets)[c]);
        ring_mem_.push_back(
            mem.alloc_sparse(std::uint64_t(ring_capacity) * kSlotBytes,
                             kCacheLineBytes, Region::kDeviceRing));
    }
    mem.set_home_socket(old_home);

    cursors_.assign(std::size_t(num_cores) * num_cores, 0);
    in_flight_.resize(std::size_t(num_cores) * num_cores);
    outbox_.resize(num_cores);
    shards_.resize(num_cores);
    load_shards_.assign(num_cores,
                        std::vector<std::uint64_t>(table_size, 0));
}

bool
SteerFabric::stage(std::uint32_t src, std::uint32_t dst,
                   const std::uint8_t *frame, std::uint32_t len,
                   TimeNs arrival_ns, TimeNs now_ns)
{
    PMILL_ASSERT(src < num_cores_ && dst < num_cores_, "bad steer core");
    // A source's stage times rise, so its in-flight records are in due
    // order and every landed one sits at the front.
    std::deque<TimeNs> &flying = in_flight_[src * num_cores_ + dst];
    while (!flying.empty() && flying.front() <= now_ns)
        flying.pop_front();
    if (flying.size() >= ring_capacity_) {
        ++shards_[src].stage_drops;
        return false;
    }
    const TimeNs due = now_ns + latency_ns_;
    flying.push_back(due);
    outbox_[src].push_back(
        Handoff{std::vector<std::uint8_t>(frame, frame + len), src, dst,
                arrival_ns, due});
    ++shards_[src].steered;
    return true;
}

std::uint64_t
SteerFabric::entry_load(std::uint32_t idx) const
{
    PMILL_ASSERT(idx <= mask_, "bad steer table index");
    std::uint64_t sum = 0;
    for (const auto &shard : load_shards_)
        sum += shard[idx];
    return sum;
}

void
SteerFabric::reset_entry_loads()
{
    for (auto &shard : load_shards_)
        std::fill(shard.begin(), shard.end(), 0);
}

SteerStats
SteerFabric::stats() const
{
    SteerStats s;
    for (const SteerStats &sh : shards_) {
        s.steered += sh.steered;
        s.passed += sh.passed;
        s.delivered += sh.delivered;
        s.stage_drops += sh.stage_drops;
        s.ring_drops += sh.ring_drops;
    }
    s.in_flight = s.steered - s.delivered - s.ring_drops;
    return s;
}

} // namespace pmill
