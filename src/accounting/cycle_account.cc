#include "src/accounting/cycle_account.hh"

namespace pmill {

const char *
acct_scope_name(std::uint16_t scope)
{
    switch (scope) {
      case kAcctFramework:
        return "framework";
      case kAcctIdle:
        return "idle";
      case kAcctDriverRx:
        return "driver_rx";
      case kAcctDriverTx:
        return "driver_tx";
      case kAcctMempool:
        return "mempool";
      case kAcctMetadata:
        return "metadata";
      default:
        return "element";
    }
}

const char *
acct_component_name(std::uint32_t component)
{
    switch (component) {
      case kAcctCompute:
        return "compute";
      case kAcctAccess:
        return "l1l2_access";
      case kAcctLlcStall:
        return "llc_stall";
      case kAcctDramStall:
        return "dram_stall";
      case kAcctTlbStall:
        return "tlb_stall";
      default:
        return "?";
    }
}

CycleAccount::Fixed
CycleAccount::Snapshot::sum_minus_total() const
{
    Fixed sum = 0;
    for (Fixed b : buckets)
        sum += b;
    return sum - total;
}

CycleAccount::Snapshot
CycleAccount::Snapshot::delta_since(const Snapshot &base) const
{
    Snapshot d;
    d.buckets.resize(buckets.size(), 0);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const Fixed b = i < base.buckets.size() ? base.buckets[i] : 0;
        d.buckets[i] = buckets[i] - b;
    }
    d.total = total - base.total;
    return d;
}

CycleAccount::Fixed
CycleAccount::Snapshot::scope_total(std::uint16_t scope) const
{
    Fixed sum = 0;
    for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
        sum += bucket(scope, c);
    return sum;
}

CycleAccount::Fixed
CycleAccount::Snapshot::component_total(std::uint32_t component) const
{
    Fixed sum = 0;
    for (std::uint32_t s = 0; s < num_scopes(); ++s)
        sum += bucket(static_cast<std::uint16_t>(s), component);
    return sum;
}

CycleAccount::Fixed
CycleAccount::sum_minus_total() const
{
    Fixed sum = 0;
    for (Fixed b : buckets_)
        sum += b;
    return sum - total_;
}

CycleAccount::Fixed
CycleAccount::scope_total(std::uint16_t scope) const
{
    Fixed sum = 0;
    const std::size_t base = std::size_t(scope) * kAcctNumComponents;
    for (std::uint32_t c = 0; c < kAcctNumComponents; ++c) {
        const std::size_t i = base + c;
        if (i < buckets_.size())
            sum += buckets_[i];
    }
    return sum;
}

CycleAccount::Fixed
CycleAccount::component_total(std::uint32_t component) const
{
    Fixed sum = 0;
    for (std::size_t i = component; i < buckets_.size();
         i += kAcctNumComponents)
        sum += buckets_[i];
    return sum;
}

void
CycleAccount::grow(std::size_t index)
{
    // Round up to a whole scope row so a scope's components are never
    // split across two growth steps.
    const std::size_t scopes = index / kAcctNumComponents + 1;
    buckets_.resize(scopes * kAcctNumComponents, 0);
}

} // namespace pmill
