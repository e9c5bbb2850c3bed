/**
 * @file
 * Deterministic samplers for the workload-synthesis subsystem: Zipf
 * flow popularity over universes up to millions of flows, and a
 * two-state on/off (MMPP-style) burst modulator for arrivals.
 *
 * Everything draws from a caller-supplied Xorshift64, so a seed fully
 * determines the sample stream — the property the bench gate's `eq_`
 * columns rely on.
 */

#ifndef PMILL_WORKLOAD_SAMPLERS_HH
#define PMILL_WORKLOAD_SAMPLERS_HH

#include <cstdint>

#include "src/common/random.hh"

namespace pmill {

/**
 * Zipf(s) sampler over ranks [0, n) by rejection inversion
 * (Hörmann & Derflinger), the standard O(1)-memory method: no
 * precomputed CDF, so a multi-million-element universe costs nothing,
 * and expected iterations per sample are < 2 for any skew. Skew 0
 * degenerates to uniform.
 */
class ZipfSampler {
  public:
    /**
     * @param n Universe size (ranks 0..n-1; rank 0 most popular).
     * @param skew Zipf exponent s >= 0 (0 = uniform, ~1 = web-like).
     */
    ZipfSampler(std::uint64_t n, double skew);

    /** Draw one rank in [0, n); consumes @p rng deterministically. */
    std::uint64_t sample(Xorshift64 &rng) const;

    std::uint64_t universe() const { return n_; }
    double skew() const { return s_; }

  private:
    double h_integral(double x) const;  ///< int of x^-s (shifted)
    double h(double x) const;           ///< x^-s
    double h_integral_inv(double x) const;

    std::uint64_t n_;
    double s_;
    double h_x1_ = 0;        ///< h_integral(1.5) - 1
    double h_n_ = 0;         ///< h_integral(n + 0.5)
    double threshold_ = 0;   ///< immediate-accept cutoff
};

/**
 * Two-state on/off burst modulator (an MMPP-2 with packet-count
 * dwells): ON phases emit at @p burst times the mean rate, OFF phases
 * rebalance so the long-run mean stays exactly the offered rate.
 * next_gap_scale() returns the factor to multiply the nominal
 * inter-arrival gap by — 1/burst while ON, (2 - 1/burst) while OFF —
 * with geometrically distributed dwell lengths averaging
 * phase_pkts/2 packets per phase.
 */
class BurstModulator {
  public:
    /// Largest phase_pkts: keeps every drawn dwell far inside
    /// uint64_t (at most ~37 times the mean).
    static constexpr double kMaxPhasePkts = 4294967296.0;  // 2^32

    /**
     * @param burst Peak-to-mean ratio (clamped to >= 1; 1 = off).
     * @param phase_pkts Mean packets per full on+off cycle (clamped to
     *        >= 2; at most kMaxPhasePkts).
     */
    BurstModulator(double burst, double phase_pkts);

    /** Gap-scale factor for the next arrival. */
    double next_gap_scale(Xorshift64 &rng);

    bool active() const { return burst_ > 1.0; }
    bool on_phase() const { return on_; }

  private:
    double burst_;
    double mean_dwell_;  ///< mean packets per phase
    double gap_on_;
    double gap_off_;
    bool on_ = false;          ///< flips before the first draw
    std::uint64_t left_ = 0;   ///< packets left in the current phase
};

} // namespace pmill

#endif // PMILL_WORKLOAD_SAMPLERS_HH
