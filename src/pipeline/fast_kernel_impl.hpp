/// \file fast_kernel_impl.hpp
/// The fast-profile conversion kernel body: the one implementation of the
/// fast determinism contract.
///
/// `capture<L>` converts one capture for L dies, one per lane. Include this
/// from a translation unit that defines ADC_FAST_KERNEL_NS to its own
/// namespace and is compiled with the kernel flags (-ffp-contract=off
/// -fno-math-errno -fno-trapping-math):
///  * pipeline/fast_kernel.cpp instantiates L = 1 in baseline code — every
///    fast conversion of PipelineAdc runs there, so the scalar fast path
///    *is* the one-lane kernel;
///  * the three batch tiers (src/batch/batch_kernel_*.cpp) instantiate
///    L = kLanes with their target flags.
/// Everything here lives in an anonymous namespace inside the includer's
/// namespace (internal linkage): the L = 8 instantiations of the SSE2 and
/// AVX-512 tiers must stay distinct symbols, or the linker merges them and
/// wide code leaks to baseline callers. Every shared helper it pulls in
/// (fastmath, the Philox tile, span math) is ADC_ALWAYS_INLINE for the same
/// reason.
///
/// ## Bit-identity
///
/// Every tier rounds identically: the same expression trees and
/// association at every L, branches whose both arms are safe to evaluate
/// written as selects (value-identical), and `-ffp-contract=off` so no FMA
/// contraction changes a rounding step on tiers whose hardware has FMA.
/// tests/test_batch.cpp pins L = kLanes against L = 1 across shapes and
/// tiers; the golden tables pin L = 1.
///
/// ## Layout
///
/// Lanes are dies: the two serial per-die recurrences (reference droop,
/// random-walk jitter) live in lane-indexed registers, and all sample math
/// runs on `double[L]` stack arrays with constant trip counts — the pattern
/// GCC's vectorizer converts wholesale. Noise is generated per die
/// (contiguous positional fill) into `scratch`, then interleave-transposed
/// into lane-minor rows in `plane` so every draw load in the sample loop is
/// contiguous; at L = 1 the fill writes the rows directly.

#ifndef ADC_FAST_KERNEL_NS
#error "fast_kernel_impl.hpp: define ADC_FAST_KERNEL_NS before including"
#endif

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/contracts.hpp"
#include "common/counter_rng_tile.hpp"
#include "common/span_math.hpp"
#include "pipeline/fast_kernel.hpp"

namespace ADC_FAST_KERNEL_NS {
namespace {

namespace fk = adc::pipeline::fast;
namespace fm = adc::common::fastmath;

/// |x| <= bound, false for NaN; with bound = DBL_MAX it is isfinite(x).
/// Spelled with the fabs builtin so a Debug build emits no out-of-line
/// helper compiled with this TU's target flags.
ADC_ALWAYS_INLINE inline bool within(double x, double bound) { return std::fabs(x) <= bound; }

constexpr double kMaxFinite = std::numeric_limits<double>::max();

/// The fast-profile comparator decision as a select: metastable inputs
/// resolve from the draw's sign (the latch regenerates from its own sampled
/// noise), otherwise the sign of the margin decides. Both arms are pure, so
/// the select is value-identical to the branch.
ADC_ALWAYS_INLINE inline bool decide_draw(double v, double threshold, double offset,
                                          double noise_rms, double meta, double draw) {
  const double noisy = v + noise_rms * draw;
  const double margin = noisy - (threshold + offset);
  const bool metastable = std::fabs(margin) < meta;
  // !std::signbit(draw), spelled bitwise so the loop vectorizes.
  const bool draw_positive = (std::bit_cast<std::uint64_t>(draw) >> 63) == 0;
  // Bitwise (not short-circuit) combine: both sides are pure, and a branch
  // here would keep the whole decision loop scalar.
  return (metastable & draw_positive) | (!metastable & (margin > 0.0));
}

/// Clenshaw recurrence over the lanes for one Chebyshev surrogate — the
/// exact operation sequence of adc::common::Chebyshev::operator(), with the
/// coefficient loop outermost so each step is a flat lane loop.
template <std::size_t L>
ADC_ALWAYS_INLINE inline void clenshaw_lanes(const double* coef, std::size_t count, double mid,
                                             double inv_half, const double* z, double* out) {
  double y[L];
  double two_y[L];
  double b1[L];
  double b2[L];
  for (std::size_t l = 0; l < L; ++l) {
    y[l] = (z[l] - mid) * inv_half;
    two_y[l] = 2.0 * y[l];
    b1[l] = 0.0;
    b2[l] = 0.0;
  }
  for (std::size_t k = count; k-- > 1;) {
    const double ck = coef[k];
    for (std::size_t l = 0; l < L; ++l) {
      const double b0 = two_y[l] * b1[l] - b2[l] + ck;
      b2[l] = b1[l];
      b1[l] = b0;
    }
  }
  const double c0 = coef[0];
  for (std::size_t l = 0; l < L; ++l) {
    out[l] = y[l] * b1[l] - b2[l] + c0;
  }
}

template <std::size_t L>
void capture(const fk::PlanView& p, const fk::StateView& st, std::uint64_t epoch,
             std::size_t n) {
  ADC_EXPECT(p.settle_s >= 0.0, "fast kernel: negative settling time");
  const std::size_t slots = p.slots;
  const std::size_t nstages = p.num_stages;
  const std::size_t raw_stride = nstages + 1;
  // Lane state: droop from the caller (or zero for a fresh capture), walk
  // accumulates from zero every capture.
  double droop[L];
  double walk[L];
  for (std::size_t l = 0; l < L; ++l) {
    droop[l] = st.droop != nullptr ? st.droop[l] : 0.0;
    walk[l] = 0.0;
  }
  for (std::size_t base = 0; base < n; base += fk::kChunkSamples) {
    const std::size_t count = (n - base < fk::kChunkSamples) ? (n - base) : fk::kChunkSamples;
    const std::size_t rows = count * slots;
    // Per-die positional noise fill (key, epoch, sample*slots + slot), then
    // transpose to lane-minor rows.
    if constexpr (L == 1) {
      adc::common::tile::philox_normal_fill_ptr(
          p.noise_key[0], epoch, static_cast<std::uint64_t>(base) * slots, st.plane, rows);
    } else {
      for (std::size_t l = 0; l < L; ++l) {
        adc::common::tile::philox_normal_fill_ptr(
            p.noise_key[l], epoch, static_cast<std::uint64_t>(base) * slots,
            st.scratch + l * rows, rows);
      }
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t l = 0; l < L; ++l) {
          st.plane[r * L + l] = st.scratch[l * rows + r];
        }
      }
    }
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t k = base + s;
      const double* row = st.plane + s * slots * L;

      // --- stimulus ---
      double v[L];
      double dv[L];
      if (p.voltages != nullptr) {
        // Already-sampled voltages: no sampling instant, zero slope.
        for (std::size_t l = 0; l < L; ++l) {
          v[l] = p.voltages[k];
          dv[l] = 0.0;
        }
      } else {
        // Sampling instant: the clock's jitter and random-walk slots.
        double t[L];
        const double t0 = static_cast<double>(k) * p.period;
        for (std::size_t l = 0; l < L; ++l) t[l] = t0;
        if (p.jitter_rms > 0.0) {
          const double* d = row + fk::kSlotJitter * L;
          for (std::size_t l = 0; l < L; ++l) t[l] += p.jitter_rms * d[l];
        }
        if (p.walk_rms > 0.0) {
          const double* d = row + fk::kSlotWalk * L;
          for (std::size_t l = 0; l < L; ++l) {
            walk[l] += p.walk_rms * d[l];
            t[l] += walk[l];
          }
        }
        if (p.sample_fn != nullptr) {
          for (std::size_t l = 0; l < L; ++l) p.sample_fn(p.signal_ctx, t[l], &v[l], &dv[l]);
        } else if (!p.multi_tone) {
          const fk::ToneView tn = p.tones[0];
          for (std::size_t l = 0; l < L; ++l) {
            double sv = 0.0;
            double cv = 0.0;
            fm::sincos_fast(tn.w * t[l] + tn.phase, sv, cv);
            v[l] = p.tone_offset + tn.amp * sv;
            dv[l] = tn.slope_coef * cv;
          }
        } else {
          for (std::size_t l = 0; l < L; ++l) {
            v[l] = 0.0;
            dv[l] = 0.0;
          }
          for (std::size_t ti = 0; ti < p.tone_count; ++ti) {
            const fk::ToneView tn = p.tones[ti];
            for (std::size_t l = 0; l < L; ++l) {
              double sv = 0.0;
              double cv = 0.0;
              fm::sincos_fast(tn.w * t[l] + tn.phase, sv, cv);
              v[l] += tn.amp * sv;
              dv[l] += tn.slope_coef * cv;
            }
          }
        }
      }

      // --- front-end tracking error (DifferentialSampler fast surrogates) ---
      double tracked[L];
      if (p.tracking_nonlinearity) {
        double z[L];
        double tau[L];
        double inj[L];
        for (std::size_t l = 0; l < L; ++l) z[l] = v[l] * v[l];
        clenshaw_lanes<L>(p.tau_coef, p.tau_count, p.tau_mid, p.tau_inv_half, z, tau);
        if (p.injection_on) {
          clenshaw_lanes<L>(p.inj_coef, p.inj_count, p.inj_mid, p.inj_inv_half, z, inj);
        } else {
          for (std::size_t l = 0; l < L; ++l) inj[l] = 0.0;
        }
        bool any_oos = false;
        bool oos[L];
        for (std::size_t l = 0; l < L; ++l) {
          oos[l] = z[l] > p.fit_vmax2;
          any_oos = any_oos || oos[l];
        }
        for (std::size_t l = 0; l < L; ++l) {
          double tr = v[l];
          tr += -tau[l] * dv[l];
          tr += p.injection_on ? v[l] * inj[l] : 0.0;
          tracked[l] = tr;
        }
        if (any_oos) {
          // Rare: the stimulus left the fitted span. Recompute those lanes
          // through the baseline-compiled direct evaluation.
          for (std::size_t l = 0; l < L; ++l) {
            if (!oos[l]) continue;
            double tr = v[l];
            tr += -p.tau_fallback(p.sampler_ctx, v[l]) * dv[l];
            tr += p.inj_fallback(p.sampler_ctx, v[l]);
            tracked[l] = tr;
          }
        }
      } else {
        for (std::size_t l = 0; l < L; ++l) tracked[l] = v[l];
      }

      // --- bias-ripple gain modulation ---
      // Ripple scales every leg current by one factor f; instead of
      // re-deriving each stage's settle constants from its rippled current,
      // they are rescaled analytically: GBW ~ sqrt(I) so tau /= sqrt(f),
      // SR ~ I so sr *= f. One sqrt per sample covers all stages.
      double f[L];
      double sqf[L];
      if (p.ripple_on) {
        const double* d = row + fk::kSlotRipple * L;
        for (std::size_t l = 0; l < L; ++l) {
          const double a = 1.0 + p.ripple_sigma[l] * d[l];
          const double m = a < 0x1p-20 ? 0x1p-20 : a;  // std::max(a, 0x1p-20)
          f[l] = m;
          sqf[l] = std::sqrt(m);
        }
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          f[l] = 1.0;
          sqf[l] = 1.0;
        }
      }

      // --- live reference (ReferenceBuffer::vref) ---
      double vref[L];
      for (std::size_t l = 0; l < L; ++l) {
        vref[l] = p.nominal_vref[l] + p.level_error[l] - droop[l];
        ADC_EXPECT(within(vref[l], kMaxFinite) && vref[l] > 0.0, "fast kernel: bad V_REF");
      }

      // --- stage chain ---
      double x[L];
      double activity[L];
      for (std::size_t l = 0; l < L; ++l) {
        x[l] = tracked[l];
        activity[l] = 0.0;
      }
      int codes[fk::kMaxStages][L];
      for (std::size_t i = 0; i < nstages; ++i) {
        const double* sig = p.sigma_sample + i * L;
        const double* ohi = p.off_hi + i * L;
        const double* olo = p.off_lo + i * L;
        const double* nhi = p.noise_hi + i * L;
        const double* nlo = p.noise_lo + i * L;
        const double* mhi = p.meta_hi + i * L;
        const double* mlo = p.meta_lo + i * L;
        const double* d0 = p.droop_d0 + i * L;
        const double* d1 = p.droop_d1 + i * L;
        const double* gn = p.gain + i * L;
        const double* gd = p.gdac + i * L;
        const double* igd = p.inv_gain_denom + i * L;
        const double* nit = p.neg_inv_tau0 + i * L;
        const double* srr = p.sr + i * L;
        const double* srt = p.sr_tau0 + i * L;
        const double* isw = p.inv_swing + i * L;
        const double* gmc = p.gm_compression + i * L;
        const double* osw = p.output_swing + i * L;
        const double* rt = row + (fk::kSlotStageBase + fk::kSlotsPerStage * i) * L;
        const double* rh = rt + L;
        const double* rl = rt + 2 * L;
        for (std::size_t l = 0; l < L; ++l) {
          ADC_EXPECT(within(x[l], kMaxFinite), "fast kernel: non-finite stage input");
        }

        // 1. Sample with thermal noise from this stage's plane slot.
        double sampled[L];
        if (p.thermal_on) {
          for (std::size_t l = 0; l < L; ++l) sampled[l] = x[l] + sig[l] * rt[l];
        } else {
          for (std::size_t l = 0; l < L; ++l) sampled[l] = x[l];
        }

        // 2. ADSC decision d = high ? +1 : (low ? 0 : -1). Reading the low
        // comparator's draw when the high one already decided is harmless —
        // draws are positional and stateless, exactly why the slot layout
        // reserves one per comparator.
        int d[L];
        for (std::size_t l = 0; l < L; ++l) {
          const double thr = vref[l] / 4.0;
          const bool hi = decide_draw(sampled[l], thr, ohi[l], nhi[l], mhi[l], rh[l]);
          const bool lo = decide_draw(sampled[l], -thr, olo[l], nlo[l], mlo[l], rl[l]);
          // hi ? +1 : (lo ? 0 : -1), as branch-free integer arithmetic.
          d[l] = static_cast<int>(hi) + static_cast<int>(hi | lo) - 1;
        }
        if (p.forced_code != nullptr) {
          // Calibration mode: the DSB is driven directly.
          const int* fc = p.forced_code + i * L;
          for (std::size_t l = 0; l < L; ++l) d[l] = fc[l] == fk::kFreeCode ? d[l] : fc[l];
        }

        // 3.-4. Hold droop (affine in the sampled voltage) + residue target.
        double target[L];
        for (std::size_t l = 0; l < L; ++l) {
          const double held = sampled[l] - (d0[l] + d1[l] * sampled[l]);
          target[l] = gn[l] * held - static_cast<double>(d[l]) * gd[l] * vref[l];
          ADC_EXPECT(within(target[l], kMaxFinite), "fast kernel: non-finite residue target");
        }

        // 5. Opamp settling, restructured so the one data-dependent
        // exponential is hoisted into a single span call. Both branch arms
        // feed the same exp expression with a selected prefactor/time, so
        // the select form is value-identical; the pure-slewing case
        // overrides the product afterwards.
        double finalv[L];
        double mag[L];
        double tau_stretch[L];
        double sr_tau[L];
        for (std::size_t l = 0; l < L; ++l) {
          const double fv = target[l] * igd[l];
          const double m = std::fabs(fv);
          const double sf0 = m * isw[l];
          const double swing_frac = 1.0 < sf0 ? 1.0 : sf0;  // std::min(sf0, 1.0)
          // gm compression lengthens tau with output amplitude; under ripple
          // the linear-regime step limit SR*tau scales by sqrt(f).
          const double stretch = 1.0 + gmc[l] * swing_frac;
          finalv[l] = fv;
          mag[l] = m;
          tau_stretch[l] = stretch;
          sr_tau[l] = srt[l] * sqf[l] * stretch;
        }
        // Slew test, reduced across the lanes: a settled pipeline is linear
        // (mag <= sr_tau) on nearly every sample, and the all-linear path
        // drops the slew-time division — the kernel is divider-port-bound
        // (fill log/sqrt + settle divides), so one less vdivpd per stage is
        // a real win, not noise.
        double max_excess = mag[0] - sr_tau[0];
        for (std::size_t l = 1; l < L; ++l) {
          const double ex = mag[l] - sr_tau[l];
          max_excess = ex > max_excess ? ex : max_excess;
        }
        double earg[L];
        double pref[L];
        double slew_dyn[L];
        // Double-valued select mask (0.0 / 1.0): a bool array store inside
        // this loop leaves GCC without a vector type for the whole body.
        double still_slewing[L];
        if (max_excess <= 0.0) {
          // All lanes linear: t_exp == settle_s, pref == mag, no override.
          // Same expression tree (and association) as the general arm below
          // with `linear` true, so the bits are identical.
          for (std::size_t l = 0; l < L; ++l) {
            earg[l] = p.settle_s * nit[l] * sqf[l] / tau_stretch[l];
            pref[l] = mag[l];
            still_slewing[l] = 0.0;
            slew_dyn[l] = 0.0;
          }
        } else {
          for (std::size_t l = 0; l < L; ++l) {
            const bool linear = mag[l] <= sr_tau[l];
            const double sr_eff = srr[l] * f[l];
            const double t_slew = (mag[l] - sr_tau[l]) / sr_eff;
            const double t_exp = linear ? p.settle_s : (p.settle_s - t_slew);
            earg[l] = t_exp * nit[l] * sqf[l] / tau_stretch[l];
            pref[l] = linear ? mag[l] : sr_tau[l];
            still_slewing[l] = (!linear & (p.settle_s <= t_slew)) ? 1.0 : 0.0;
            slew_dyn[l] = mag[l] - sr_eff * p.settle_s;
          }
        }
        double e[L];
        adc::common::spanmath::exp_span(earg, e, L);
        for (std::size_t l = 0; l < L; ++l) {
          double dyn = pref[l] * e[l];
          dyn = still_slewing[l] > 0.5 ? slew_dyn[l] : dyn;
          const double sign = finalv[l] < 0.0 ? -1.0 : 1.0;
          double out_v = finalv[l] - sign * dyn;
          out_v = out_v > osw[l] ? osw[l] : out_v;    // clamp to output swing;
          out_v = out_v < -osw[l] ? -osw[l] : out_v;  // no-ops when inside
          ADC_ENSURE(within(out_v, osw[l]), "fast kernel: residue outside the output swing");
          x[l] = out_v;
          activity[l] += std::fabs(static_cast<double>(d[l]));
          codes[i][l] = d[l];
        }
      }

      // --- backend flash ---
      int cnt[L];
      for (std::size_t l = 0; l < L; ++l) cnt[l] = 0;
      const double* rf = row + (fk::kSlotStageBase + fk::kSlotsPerStage * nstages) * L;
      for (std::size_t kc = 0; kc < p.flash_count; ++kc) {
        const double* df = rf + kc * L;
        const double* off = p.flash_off + kc * L;
        const double* nse = p.flash_noise + kc * L;
        const double* met = p.flash_meta + kc * L;
        const double frac = p.flash_frac[kc];
        for (std::size_t l = 0; l < L; ++l) {
          const bool b = decide_draw(x[l], frac * vref[l], off[l], nse[l], met[l], df[l]);
          cnt[l] += static_cast<int>(b);
        }
      }

      // --- redundancy correction (ErrorCorrection::correct) ---
      // The lane-wise form of digital::weighted_sum, kept here because this
      // header stays POD with the lanes innermost: stage-major accumulation,
      // the saturation clamps as integer selects. Exact-integer arithmetic,
      // so the order of the sum cannot change a code.
      if (st.out != nullptr) {
        long long acc[L];
        for (std::size_t l = 0; l < L; ++l) acc[l] = p.corr_offset;
        for (std::size_t i = 0; i < nstages; ++i) {
          const long long w = p.weights[i];
          for (std::size_t l = 0; l < L; ++l) {
            acc[l] += static_cast<long long>(codes[i][l]) * w;
          }
        }
        for (std::size_t l = 0; l < L; ++l) {
          long long a = acc[l] + cnt[l];
          a = a < 0 ? 0 : a;
          a = a > p.max_code ? p.max_code : a;
          st.out[l][k] = static_cast<int>(a);
        }
      }
      if (st.raw != nullptr) {
        for (std::size_t l = 0; l < L; ++l) {
          int* r = st.raw[l] + k * raw_stride;
          for (std::size_t i = 0; i < nstages; ++i) r[i] = codes[i][l];
          r[nstages] = cnt[l];
        }
      }

      // --- reference droop (ReferenceBuffer::consume) ---
      if (p.consume_on) {
        for (std::size_t l = 0; l < L; ++l) {
          droop[l] += activity[l] * p.charge_per_event / p.decap;
        }
        if (p.recharge_on) {
          for (std::size_t l = 0; l < L; ++l) droop[l] *= p.recharge_factor;
        } else {
          for (std::size_t l = 0; l < L; ++l) droop[l] = 0.0;
        }
      }
    }
  }
  if (st.droop != nullptr) {
    for (std::size_t l = 0; l < L; ++l) st.droop[l] = droop[l];
  }
}

}  // namespace
}  // namespace ADC_FAST_KERNEL_NS
