/**
 * @file
 * Zipfian rank sampler for the serving workloads.
 *
 * Implements the constant-time bounded-Zipfian sampler of Gray et al.
 * ("Quickly generating billion-record synthetic databases", SIGMOD'94),
 * the same formulation YCSB popularized: ranks r in [0, n) are drawn
 * with probability proportional to 1 / (r+1)^theta. theta = 0
 * degenerates to the uniform distribution; theta -> 1 approaches the
 * classic Zipf law (theta must stay below 1 for the closed form).
 *
 * Construction is O(1): the generalized harmonic number
 * zeta(n, theta) = sum_{i=1..n} i^-theta is the exact sum of its first
 * 31 terms plus an Euler-Maclaurin tail over [32, n],
 *
 *   int_32^n x^-t dx + (f(32) + f(n)) / 2
 *     + sum_{k=1..3} B_2k / (2k)! * (f^(2k-1)(n) - f^(2k-1)(32)),
 *
 * with f(x) = x^-t and the integral written as
 * 32^(1-t) * expm1((1-t) * log(n/32)) / (1-t), so it stays exact as
 * theta -> 1. The first omitted term is bounded by
 * |B_8| / 8! * |f^(7)(32)| < 4e-15 for every theta in [0, 1); with
 * the sum kept in long double and rounded once, the result is within
 * 1e-14 relative of the exact sum (below n = 32 the terms are simply
 * added). Sampling is O(1) and consumes exactly one Pcg32 draw, so
 * streams are bit-exactly reproducible from the generator seed.
 */

#ifndef PTM_WORKLOADS_ZIPFIAN_HH
#define PTM_WORKLOADS_ZIPFIAN_HH

#include <cmath>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace ptm
{

class Zipfian
{
  public:
    /**
     * @param n      number of ranks (> 0)
     * @param theta  skew in [0, 1): 0 = uniform, 0.99 = heavy skew
     */
    Zipfian(std::uint64_t n, double theta) : n_(n), theta_(theta)
    {
        panic_if(n == 0, "Zipfian over an empty rank set");
        panic_if(theta < 0.0 || theta >= 1.0,
                 "Zipfian skew %f outside [0, 1)", theta);
        if (theta_ == 0.0)
            return;
        zetan_ = zeta(n_, theta_);
        double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
        alpha_ = 1.0 / (1.0 - theta_);
        eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
               (1.0 - zeta2 / zetan_);
        half_pow_ = 1.0 + std::pow(0.5, theta_);
    }

    /** Draw one rank in [0, n); rank 0 is the most popular. */
    std::uint64_t
    sample(Pcg32 &rng) const
    {
        if (theta_ == 0.0)
            return rng.below(std::uint32_t(n_));
        double u = rng.uniform();
        double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < half_pow_)
            return 1;
        auto r = std::uint64_t(double(n_) *
                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r >= n_ ? n_ - 1 : r;
    }

    std::uint64_t n() const { return n_; }
    double theta() const { return theta_; }

    /** zeta(n, theta) = sum_{i=1..n} i^-theta in O(1) (file comment). */
    static double
    zeta(std::uint64_t n, double theta)
    {
        using real = long double;
        constexpr std::uint64_t head = 32;
        const real t = theta;
        real sum = 0;
        for (std::uint64_t i = 1; i < head && i <= n; ++i)
            sum += std::pow(real(i), -t);
        if (n < head)
            return double(sum);

        const real a = head, b = real(n);
        // f^(k)(x) = c_k * x^(-t-k), c_k = (-1)^k t (t+1) ... (t+k-1).
        auto f = [&](real x, unsigned k) {
            real c = 1;
            for (unsigned j = 0; j < k; ++j)
                c *= -(t + j);
            return c * std::pow(x, -t - real(k));
        };
        const real s = 1 - t;
        sum += std::pow(a, s) * std::expm1(s * std::log(b / a)) / s;
        sum += (f(a, 0) + f(b, 0)) / 2;
        sum += (f(b, 1) - f(a, 1)) / 12;    // B2 / 2!
        sum -= (f(b, 3) - f(a, 3)) / 720;   // |B4| / 4!
        sum += (f(b, 5) - f(a, 5)) / 30240; // B6 / 6!
        return double(sum);
    }

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_ = 0.0;
    double alpha_ = 0.0;
    double eta_ = 0.0;
    double half_pow_ = 0.0;
};

} // namespace ptm

#endif // PTM_WORKLOADS_ZIPFIAN_HH
