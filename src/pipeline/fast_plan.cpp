#include "pipeline/fast_plan.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "pipeline/adc.hpp"

namespace adc::pipeline {

namespace {

using adc::common::require;

/// Uniformity checks compare exact bit patterns (a tolerance would hide a
/// die that genuinely diverged), spelled via bit_cast because the codebase
/// builds with -Wfloat-equal.
[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

enum DieField : std::size_t { kFNominalVref, kFLevelError, kFRippleSigma, kDieFieldCount };

enum StageField : std::size_t {
  kFSigmaSample,
  kFOffHi,
  kFOffLo,
  kFNoiseHi,
  kFNoiseLo,
  kFMetaHi,
  kFMetaLo,
  kFDroopD0,
  kFDroopD1,
  kFGain,
  kFGdac,
  kFInvGainDenom,
  kFNegInvTau0,
  kFSr,
  kFSrTau0,
  kFInvSwing,
  kFGmCompression,
  kFOutputSwing,
  kStageFieldCount,
};

enum FlashField : std::size_t { kFFlashOff, kFFlashNoise, kFFlashMeta, kFlashFieldCount };

/// Clenshaw coefficients of an unprepared surrogate (fit_vmax2 < 0 routes
/// every sample through the fallback): one harmless zero, so the kernel
/// never reads an empty table.
constexpr double kNoFit[1] = {0.0};

double tau_fallback_thunk(const void* ctx, double v) {
  return static_cast<const adc::analog::DifferentialSampler*>(ctx)->average_time_constant_fast(
      v);
}

double inj_fallback_thunk(const void* ctx, double v) {
  return static_cast<const adc::analog::DifferentialSampler*>(ctx)->charge_injection_error_fast(
      v);
}

void sample_fast_thunk(const void* ctx, double t, double* v, double* dv) {
  static_cast<const adc::dsp::Signal*>(ctx)->sample_fast(t, *v, *dv);
}

/// The block-uniform scalars of `a` and `b` agree bit for bit.
[[nodiscard]] bool same_uniform(const fast::PlanView& a, const fast::PlanView& b) {
  return a.num_stages == b.num_stages && a.flash_count == b.flash_count && a.slots == b.slots &&
         same_bits(a.period, b.period) && same_bits(a.settle_s, b.settle_s) &&
         same_bits(a.jitter_rms, b.jitter_rms) && same_bits(a.walk_rms, b.walk_rms) &&
         same_bits(a.charge_per_event, b.charge_per_event) && same_bits(a.decap, b.decap) &&
         same_bits(a.recharge_factor, b.recharge_factor) &&
         same_bits(a.fit_vmax2, b.fit_vmax2) && same_bits(a.tau_mid, b.tau_mid) &&
         same_bits(a.tau_inv_half, b.tau_inv_half) && same_bits(a.inj_mid, b.inj_mid) &&
         same_bits(a.inj_inv_half, b.inj_inv_half) && a.corr_offset == b.corr_offset &&
         a.max_code == b.max_code && a.tracking_nonlinearity == b.tracking_nonlinearity &&
         a.injection_on == b.injection_on && a.thermal_on == b.thermal_on &&
         a.ripple_on == b.ripple_on && a.consume_on == b.consume_on &&
         a.recharge_on == b.recharge_on;
}

}  // namespace

FastPlan::FastPlan(std::size_t stride, std::size_t blocks)
    : stride_(stride), lanes_(stride * blocks) {
  require(lanes_ >= 1, "FastPlan: need at least one lane");
}

void FastPlan::write_lane(const PipelineAdc& adc, std::size_t lane) {
  require(lane < lanes_, "FastPlan: lane out of range");
  const AdcConfig& c = adc.config_;

  // --- block-uniform part ---
  fast::PlanView u;
  u.num_stages = adc.stages_.size();
  u.flash_count = adc.flash_.comparators_.size();
  u.slots = fast::slots_per_sample(u.num_stages, u.flash_count);
  // Same bits as SamplingClock::period() and the droop period: the
  // normalized clock always runs at the conversion rate.
  u.period = 1.0 / c.clock.frequency_hz;
  u.settle_s = adc.settle_s_;
  u.jitter_rms = c.clock.jitter_rms_s;
  u.walk_rms = c.clock.random_walk_rms_s;

  const adc::analog::RefBufferSpec& rspec = adc.refs_.spec();
  u.charge_per_event = rspec.charge_per_event;
  u.decap = rspec.decap_farad;
  u.consume_on = rspec.charge_per_event > 0.0;
  u.recharge_on = rspec.output_resistance > 0.0 && u.period > 0.0;
  if (u.recharge_on) {
    // The exact operation sequence ReferenceBuffer::consume caches.
    const double tau = rspec.output_resistance * rspec.decap_farad;
    u.recharge_factor = std::exp(-u.period / tau);  // lint-ok: plan build, once per die
  }

  const adc::analog::DifferentialSampler& smp = adc.sampler_;
  u.tracking_nonlinearity = c.enable.tracking_nonlinearity;
  u.injection_on = smp.switch_model().config().injection_fraction > 0.0;
  u.fit_vmax2 = smp.fit_vmax2();
  u.tau_mid = smp.tau_fit().mid();
  u.tau_inv_half = smp.tau_fit().inv_half();
  u.inj_mid = smp.inj_fit().mid();
  u.inj_inv_half = smp.inj_fit().inv_half();

  u.corr_offset = adc.correction_.offset();
  u.max_code = adc.correction_.max_code();
  u.ripple_on = adc.ripple_sigma_ > 0.0;
  for (const PipelineStage& st : adc.stages_) u.thermal_on = u.thermal_on || st.sigma_sample_ > 0.0;

  if (lane == 0) {
    require(u.num_stages <= fast::kMaxStages, "FastPlan: more stages than the kernel takes");
    uniform_ = u;
    sampler_.emplace(smp);  // lint-ok: plan build, not per-sample
    flash_frac_ = adc.flash_.threshold_fractions_;
    weights_.resize(u.num_stages);
    for (std::size_t i = 0; i < u.num_stages; ++i) weights_[i] = adc.correction_.stage_weight(i);
    noise_key_.assign(lanes_, 0);
    die_lane_.assign(kDieFieldCount * lanes_, 0.0);
    stage_lane_.assign(kStageFieldCount * u.num_stages * lanes_, 0.0);
    flash_lane_.assign(kFlashFieldCount * u.flash_count * lanes_, 0.0);
    forced_.assign(u.num_stages * lanes_, fast::kFreeCode);
    any_forced_ = false;
  } else {
    require(sampler_.has_value() && same_uniform(u, uniform_) &&
                same_bits(adc.flash_.threshold_fractions_, flash_frac_) &&
                same_bits(smp.tau_fit().coefficients(), sampler_->tau_fit().coefficients()) &&
                same_bits(smp.inj_fit().coefficients(), sampler_->inj_fit().coefficients()),
            "FastPlan: die disagrees with the plan's shared configuration");
  }

  // --- per-lane die parameters ---
  noise_key_[lane] = adc.noise_rng_.seed();
  die_lane_[kFNominalVref * lanes_ + lane] = rspec.nominal_vref;
  die_lane_[kFLevelError * lanes_ + lane] = adc.refs_.level_error();
  die_lane_[kFRippleSigma * lanes_ + lane] = adc.ripple_sigma_;

  // --- per-(stage, lane) and per-(comparator, lane) invariants ---
  const std::size_t block = lane / stride_;
  const std::size_t l = lane % stride_;
  const std::size_t nstages = uniform_.num_stages;
  const std::size_t stride = nstages * stride_;
  double* sl = stage_lane_.data() + block * kStageFieldCount * stride;
  for (std::size_t i = 0; i < nstages; ++i) {
    const PipelineStage& st = adc.stages_[i];
    const adc::analog::Opamp::SettleCoeffs& sc = st.fast_settle_;
    const adc::analog::OpampParams& op = st.opamp_.params();
    const std::size_t at = i * stride_ + l;
    sl[kFSigmaSample * stride + at] = st.sigma_sample_;
    sl[kFOffHi * stride + at] = st.cmp_high_.offset();
    sl[kFOffLo * stride + at] = st.cmp_low_.offset();
    sl[kFNoiseHi * stride + at] = st.cmp_high_.noise_rms();
    sl[kFNoiseLo * stride + at] = st.cmp_low_.noise_rms();
    sl[kFMetaHi * stride + at] = st.cmp_high_.metastable_window();
    sl[kFMetaLo * stride + at] = st.cmp_low_.metastable_window();
    sl[kFDroopD0 * stride + at] = st.droop_d0_;
    sl[kFDroopD1 * stride + at] = st.droop_d1_;
    sl[kFGain * stride + at] = st.gain_;
    sl[kFGdac * stride + at] = st.gdac_;
    sl[kFInvGainDenom * stride + at] = sc.inv_gain_denom;
    sl[kFNegInvTau0 * stride + at] = sc.neg_inv_tau0;
    sl[kFSr * stride + at] = sc.sr;
    sl[kFSrTau0 * stride + at] = sc.sr_tau0;
    sl[kFInvSwing * stride + at] = sc.inv_swing;
    sl[kFGmCompression * stride + at] = op.gm_compression;
    sl[kFOutputSwing * stride + at] = op.output_swing;
    if (st.forced_code_) {
      forced_[block * stride + at] = adc::digital::value(*st.forced_code_);
      any_forced_ = true;
    }
  }

  const std::size_t fstride = uniform_.flash_count * stride_;
  double* fb = flash_lane_.data() + block * kFlashFieldCount * fstride;
  for (std::size_t k = 0; k < uniform_.flash_count; ++k) {
    const adc::analog::Comparator& cmp = adc.flash_.comparators_[k];
    const std::size_t at = k * stride_ + l;
    fb[kFFlashOff * fstride + at] = cmp.offset();
    fb[kFFlashNoise * fstride + at] = cmp.noise_rms();
    fb[kFFlashMeta * fstride + at] = cmp.metastable_window();
  }
}

bool FastPlan::has_tones(const adc::dsp::Signal& signal) {
  return dynamic_cast<const adc::dsp::SineSignal*>(&signal) != nullptr ||
         dynamic_cast<const adc::dsp::MultiToneSignal*>(&signal) != nullptr;
}

void FastPlan::set_signal(const adc::dsp::Signal& signal) {
  // Tones hoisted with SineSignal's association: argument (2π·f)·t + φ,
  // slope ((A·2π)·f)·cos.
  constexpr double two_pi = 2.0 * std::numbers::pi;
  tones_.clear();
  voltages_ = nullptr;
  signal_ = nullptr;
  multi_tone_ = false;
  tone_offset_ = 0.0;
  if (const auto* sine = dynamic_cast<const adc::dsp::SineSignal*>(&signal)) {
    tone_offset_ = sine->offset();
    tones_.reserve(1);  // capture boundary, not per-sample
    tones_.push_back({two_pi * sine->frequency(), sine->phase(), sine->amplitude(),
                      sine->amplitude() * two_pi * sine->frequency()});
  } else if (const auto* mt = dynamic_cast<const adc::dsp::MultiToneSignal*>(&signal)) {
    multi_tone_ = true;
    tones_.reserve(mt->tones().size());  // capture boundary, not per-sample
    for (const adc::dsp::MultiToneSignal::Tone& t : mt->tones()) {
      tones_.push_back({two_pi * t.frequency_hz, t.phase_rad, t.amplitude,
                        t.amplitude * two_pi * t.frequency_hz});
    }
  } else {
    signal_ = &signal;
  }
}

void FastPlan::set_voltages(const double* voltages) {
  tones_.clear();
  signal_ = nullptr;
  voltages_ = voltages;
}

fast::PlanView FastPlan::view(std::size_t block) const {
  fast::PlanView p = uniform_;
  const std::vector<double>& tc = sampler_->tau_fit().coefficients();
  const std::vector<double>& ic = sampler_->inj_fit().coefficients();
  p.tau_coef = tc.empty() ? kNoFit : tc.data();
  p.tau_count = tc.empty() ? 1 : tc.size();
  p.inj_coef = ic.empty() ? kNoFit : ic.data();
  p.inj_count = ic.empty() ? 1 : ic.size();
  p.flash_frac = flash_frac_.data();
  p.weights = weights_.data();
  p.sampler_ctx = &*sampler_;
  p.tau_fallback = &tau_fallback_thunk;
  p.inj_fallback = &inj_fallback_thunk;

  const std::size_t first = block * stride_;
  p.noise_key = noise_key_.data() + first;
  p.nominal_vref = die_lane_.data() + kFNominalVref * lanes_ + first;
  p.level_error = die_lane_.data() + kFLevelError * lanes_ + first;
  p.ripple_sigma = die_lane_.data() + kFRippleSigma * lanes_ + first;

  const std::size_t stride = p.num_stages * stride_;
  const double* sl = stage_lane_.data() + block * kStageFieldCount * stride;
  p.sigma_sample = sl + kFSigmaSample * stride;
  p.off_hi = sl + kFOffHi * stride;
  p.off_lo = sl + kFOffLo * stride;
  p.noise_hi = sl + kFNoiseHi * stride;
  p.noise_lo = sl + kFNoiseLo * stride;
  p.meta_hi = sl + kFMetaHi * stride;
  p.meta_lo = sl + kFMetaLo * stride;
  p.droop_d0 = sl + kFDroopD0 * stride;
  p.droop_d1 = sl + kFDroopD1 * stride;
  p.gain = sl + kFGain * stride;
  p.gdac = sl + kFGdac * stride;
  p.inv_gain_denom = sl + kFInvGainDenom * stride;
  p.neg_inv_tau0 = sl + kFNegInvTau0 * stride;
  p.sr = sl + kFSr * stride;
  p.sr_tau0 = sl + kFSrTau0 * stride;
  p.inv_swing = sl + kFInvSwing * stride;
  p.gm_compression = sl + kFGmCompression * stride;
  p.output_swing = sl + kFOutputSwing * stride;
  p.forced_code = any_forced_ ? forced_.data() + block * stride : nullptr;

  const std::size_t fstride = p.flash_count * stride_;
  const double* fb = flash_lane_.data() + block * kFlashFieldCount * fstride;
  p.flash_off = fb + kFFlashOff * fstride;
  p.flash_noise = fb + kFFlashNoise * fstride;
  p.flash_meta = fb + kFFlashMeta * fstride;

  p.tones = tones_.data();
  p.tone_count = tones_.size();
  p.tone_offset = tone_offset_;
  p.multi_tone = multi_tone_;
  p.voltages = voltages_;
  p.signal_ctx = signal_;
  p.sample_fn = signal_ != nullptr ? &sample_fast_thunk : nullptr;
  return p;
}

}  // namespace adc::pipeline
