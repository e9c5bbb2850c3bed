#include "src/workload/samplers.hh"

#include <cmath>

#include "src/common/log.hh"

namespace pmill {

ZipfSampler::ZipfSampler(std::uint64_t n, double skew) : n_(n), s_(skew)
{
    PMILL_ASSERT(n_ >= 1, "Zipf universe must be nonempty");
    PMILL_ASSERT(s_ >= 0.0, "Zipf skew must be non-negative");
    if (s_ <= 0.0)
        return; // uniform fast path, no tables needed
    h_x1_ = h_integral(1.5) - 1.0;
    h_n_ = h_integral(static_cast<double>(n_) + 0.5);
    threshold_ = 2.0 - h_integral_inv(h_integral(2.5) - h(2.0));
}

double
ZipfSampler::h_integral(double x) const
{
    // int_1.5^x t^-s dt, shifted so the expression stays finite at s=1.
    const double log_x = std::log(x);
    if (std::fabs(1.0 - s_) < 1e-12)
        return log_x;
    return std::expm1((1.0 - s_) * log_x) / (1.0 - s_);
}

double
ZipfSampler::h(double x) const
{
    return std::exp(-s_ * std::log(x));
}

double
ZipfSampler::h_integral_inv(double x) const
{
    if (std::fabs(1.0 - s_) < 1e-12)
        return std::exp(x);
    double t = x * (1.0 - s_);
    if (t < -1.0)
        t = -1.0; // numerical guard near the distribution head
    return std::exp(std::log1p(t) / (1.0 - s_));
}

std::uint64_t
ZipfSampler::sample(Xorshift64 &rng) const
{
    if (s_ <= 0.0)
        return rng.next_below(n_);
    // Rejection inversion (Hörmann & Derflinger 1996): invert the
    // continuous majorising hazard, round to the nearest rank, accept
    // either inside the guaranteed band or by the exact test.
    for (;;) {
        const double u = h_n_ + rng.next_double() * (h_x1_ - h_n_);
        const double x = h_integral_inv(u);
        double k = std::floor(x + 0.5);
        if (k < 1.0)
            k = 1.0;
        else if (k > static_cast<double>(n_))
            k = static_cast<double>(n_);
        if (k - x <= threshold_ || u >= h_integral(k + 0.5) - h(k))
            return static_cast<std::uint64_t>(k) - 1;
    }
}

BurstModulator::BurstModulator(double burst, double phase_pkts)
    : burst_(burst < 1.0 ? 1.0 : burst),
      mean_dwell_((phase_pkts < 2.0 ? 2.0 : phase_pkts) / 2.0),
      gap_on_(1.0 / burst_),
      gap_off_(2.0 - 1.0 / burst_)
{
    PMILL_ASSERT(phase_pkts <= kMaxPhasePkts,
                 "burst phase must be at most 2^32 packets");
}

double
BurstModulator::next_gap_scale(Xorshift64 &rng)
{
    if (!active())
        return 1.0;
    if (left_ == 0) {
        on_ = !on_;
        // Geometric dwell with the configured mean, support >= 1.
        const double u = rng.next_double();
        left_ = 1 + static_cast<std::uint64_t>(-std::log1p(-u) *
                                               (mean_dwell_ - 1.0));
    }
    --left_;
    return on_ ? gap_on_ : gap_off_;
}

} // namespace pmill
