#include "pipeline/adc.hpp"

#include <cmath>

#include "common/error.hpp"
#include "pipeline/fast_kernel.hpp"

namespace adc::pipeline {

using adc::common::require;

NonIdealities NonIdealities::all_off() {
  NonIdealities f;
  f.thermal_noise = false;
  f.aperture_jitter = false;
  f.capacitor_mismatch = false;
  f.comparator_imperfections = false;
  f.finite_opamp_gain = false;
  f.incomplete_settling = false;
  f.tracking_nonlinearity = false;
  f.hold_leakage = false;
  f.reference_imperfections = false;
  f.bias_ripple = false;
  return f;
}

AdcConfig PipelineAdc::normalize(AdcConfig c) {
  require(c.num_stages >= 1, "AdcConfig: need at least one stage");
  require(c.flash_bits >= 1 && c.flash_bits <= 4, "AdcConfig: flash must be 1..4 bits");
  require(c.full_scale_vpp > 0.0, "AdcConfig: non-positive full scale");
  require(c.conversion_rate > 0.0, "AdcConfig: non-positive conversion rate");
  require(c.mirror_master_gain > 0.0, "AdcConfig: non-positive mirror gain");

  // The sampling clock always runs at the conversion rate.
  c.clock.frequency_hz = c.conversion_rate;

  // --- environment (PVT) physics ---
  require(c.temperature_k > 100.0 && c.temperature_k < 500.0,
          "AdcConfig: junction temperature outside the model's validity");
  const double t_ratio = c.temperature_k / 300.0;
  // Sampled-noise power is kT/C: fold the temperature into the excess factor.
  c.stage.noise_excess *= t_ratio;
  // Junction leakage doubles every ~12 K.
  c.stage.leakage.i0 *= std::pow(2.0, (c.temperature_k - 300.0) / 12.0);  // lint-ok: construction-time derate
  // Carrier mobility falls ~T^-1.5: gm, hence GBW and slew, degrade.
  const double mobility = std::pow(t_ratio, -1.5);  // lint-ok: construction-time derate
  c.stage.opamp.gbw_hz *= mobility;
  c.stage.opamp.slew_rate *= mobility;

  const NonIdealities& e = c.enable;
  if (!e.thermal_noise) c.stage.noise_excess = 0.0;
  if (!e.aperture_jitter) c.clock.jitter_rms_s = 0.0;
  if (!e.capacitor_mismatch) {
    c.stage.c1.sigma_mismatch = 0.0;
    c.stage.c2.sigma_mismatch = 0.0;
    c.sc_bias.cb.sigma_mismatch = 0.0;
    c.mirror_sigma = 0.0;
    c.stage1_dac_skew = 0.0;
  }
  if (!e.comparator_imperfections) {
    for (auto* spec : {&c.stage.adsc_comparator, &c.flash_comparator}) {
      spec->sigma_offset = 0.0;
      spec->noise_rms = 0.0;
      spec->metastable_window = 0.0;
    }
  }
  if (!e.finite_opamp_gain) c.stage.opamp.dc_gain = 1e12;
  if (!e.incomplete_settling) c.stage.opamp.gm_compression = 0.0;
  if (!e.hold_leakage) c.stage.leakage.i0 = 0.0;
  if (!e.reference_imperfections) {
    c.refs.sigma_level = 0.0;
    c.refs.charge_per_event = 0.0;
    c.bandgap.sigma_process = 0.0;
    c.bandgap.curvature = 0.0;
    c.bandgap.supply_sensitivity = 0.0;
  }
  if (!e.bias_ripple) c.sc_bias.ripple_sigma = 0.0;
  return c;
}

namespace {

adc::analog::RefBufferSpec couple_refs_to_bandgap(adc::analog::RefBufferSpec refs,
                                                  const adc::analog::Bandgap& bandgap,
                                                  double t_kelvin, double vdd) {
  // The reference divider runs off the bandgap: its process spread and its
  // (small) temperature/supply movement scale VREF proportionally (a pure
  // gain error at the converter level).
  refs.nominal_vref *= bandgap.output(t_kelvin, vdd) / bandgap.spec().nominal_output;
  return refs;
}

std::unique_ptr<adc::bias::BiasSource> make_bias(const AdcConfig& c,
                                                 const adc::analog::Bandgap& bandgap,
                                                 adc::common::Rng& rng) {
  if (c.bias_scheme == BiasScheme::kSwitchedCapacitor) {
    adc::bias::ScBiasSpec spec = c.sc_bias;
    // V_BIAS is derived from the bandgap; its spread tracks the bandgap's.
    spec.v_bias *=
        bandgap.output(c.temperature_k, c.vdd) / bandgap.spec().nominal_output;
    auto bias_rng = rng.child("sc-bias");
    return std::make_unique<adc::bias::ScBiasGenerator>(  // lint-ok: construction-time wiring
        spec, bias_rng);
  }
  auto bias_rng = rng.child("fixed-bias");
  return std::make_unique<adc::bias::FixedBiasGenerator>(  // lint-ok: construction-time wiring
      c.fixed_bias, bias_rng);
}

std::vector<PipelineStage> make_stages(const AdcConfig& c, adc::common::Rng& rng) {
  const double vref_nominal = c.full_scale_vpp / 2.0;
  std::vector<PipelineStage> stages;
  stages.reserve(static_cast<std::size_t>(c.num_stages));
  for (int i = 0; i < c.num_stages; ++i) {
    const double scale = c.scaling.factor(static_cast<std::size_t>(i));
    StageSpec spec = c.stage;
    if (i == 0) spec.c1.nominal_farad *= 1.0 + c.stage1_dac_skew;
    stages.emplace_back(spec, scale, vref_nominal,
                        rng.child("stage", static_cast<std::uint64_t>(i)));
  }
  return stages;
}

adc::bias::MirrorBankSpec mirror_spec(const AdcConfig& c) {
  adc::bias::MirrorBankSpec spec;
  spec.sigma_mismatch = c.mirror_sigma;
  spec.ratios.reserve(static_cast<std::size_t>(c.num_stages));
  for (int i = 0; i < c.num_stages; ++i) {
    spec.ratios.push_back(c.mirror_master_gain * c.scaling.factor(static_cast<std::size_t>(i)));
  }
  return spec;
}

}  // namespace

PipelineAdc::PipelineAdc(const AdcConfig& config)
    : config_(normalize(config)),
      rng_(config_.seed),
      noise_rng_(rng_.child("conversion-noise")),
      bandgap_([this] {
        auto bg_rng = rng_.child("bandgap");
        return adc::analog::Bandgap(config_.bandgap, bg_rng);
      }()),
      refs_([this] {
        auto ref_rng = rng_.child("refs");
        return adc::analog::ReferenceBuffer(
            couple_refs_to_bandgap(config_.refs, bandgap_, config_.temperature_k,
                                   config_.vdd),
            ref_rng);
      }()),
      sampler_(config_.input_switch, config_.refs.common_mode,
               config_.stage.c1.nominal_farad + config_.stage.c2.nominal_farad),
      clock_([this] {
        auto clk_rng = rng_.child("clock");
        return adc::clocking::SamplingClock(config_.clock, clk_rng);
      }()),
      phases_(config_.phases),
      bias_(make_bias(config_, bandgap_, rng_)),
      mirrors_([this] {
        auto mir_rng = rng_.child("mirrors");
        return adc::bias::MirrorBank(mirror_spec(config_), mir_rng);
      }()),
      stages_(make_stages(config_, rng_)),
      flash_(config_.flash_bits, config_.flash_comparator, config_.full_scale_vpp / 2.0,
             rng_.child("flash")),
      correction_(config_.num_stages, config_.flash_bits),
      alignment_(config_.num_stages) {
  // Hoist the per-sample invariants of quantize_sample(). The phase windows
  // and master bias depend only on the configured rate; the leg currents are
  // the per-sample mirror products at the ripple-free master, valid whenever
  // ripple is off. Note this moves the phase generator's rate validation
  // from the first conversion to construction.
  windows_ = phases_.windows(config_.conversion_rate);
  settle_s_ = config_.enable.incomplete_settling ? windows_.settle_s : 1.0;
  inv_rate_ = 1.0 / config_.conversion_rate;
  master_base_ = bias_->master_current(config_.conversion_rate);
  ripple_sigma_ = config_.bias_scheme == BiasScheme::kSwitchedCapacitor
                      ? config_.sc_bias.ripple_sigma
                      : 0.0;
  leg_currents_.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    leg_currents_.push_back(mirrors_.leg_current(i, master_base_));
    stages_[i].prepare_fast(leg_currents_[i], windows_.hold_s);
  }

  // Fast-profile surrogates for the input-switch error terms, spanning the
  // full differential scale with 2x overdrive margin (beyond that the fast
  // getters fall back to the direct expressions).
  sampler_.prepare_fast(config_.full_scale_vpp);
}

double PipelineAdc::lsb() const {
  return config_.full_scale_vpp / std::ldexp(1.0, resolution_bits());
}

int PipelineAdc::latency_cycles() const { return alignment_.latency_cycles(); }

adc::clocking::PhaseWindows PipelineAdc::phase_windows() const { return windows_; }

void PipelineAdc::reset_state() {
  refs_.reset();
  alignment_.reset();
}

adc::digital::RawConversion PipelineAdc::quantize_sample(double sampled) {
  const double settle_s = settle_s_;
  const double hold_s = windows_.hold_s;

  // Master bias this conversion, including switching ripple when enabled.
  // Without ripple every per-stage bias is the precomputed leg current.
  const bool rippled = ripple_sigma_ > 0.0;
  double master = master_base_;
  if (rippled) master *= 1.0 + noise_rng_.gaussian(ripple_sigma_);

  const double vref = refs_.vref();

  adc::digital::RawConversion raw;
  double x = sampled;
  double activity = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const double ibias = rippled ? mirrors_.leg_current(i, master) : leg_currents_[i];
    const auto r = stages_[i].process(x, vref, ibias, settle_s, hold_s, noise_rng_);
    raw.stage_codes.push_back(r.code);  // lint-ok: StageCodeVec is fixed-capacity inline storage
    activity += std::abs(static_cast<double>(adc::digital::value(r.code)));
    x = r.residue;
  }
  raw.flash_code = flash_.quantize(x, vref);

  refs_.consume(activity, inv_rate_);
  return raw;
}

void PipelineAdc::capture_fast(std::size_t n, int* codes, int* raw) {
  if (fast_plan_stale_) {
    fast_plan_.write_lane(*this, 0);
    fast_rows_.resize(fast::kChunkSamples * fast_plan_.slots());
    fast_plan_stale_ = false;
  }
  int* const out[1] = {codes};
  int* const raws[1] = {raw};
  // The kernel carries the reference droop in and out, so DC conversions
  // see the droop the previous call left, as the exact profile does.
  double droop = refs_.droop();
  const fast::StateView state{nullptr, fast_rows_.data(), codes != nullptr ? out : nullptr,
                              raw != nullptr ? raws : nullptr, &droop};
  fast::convert_capture(fast_plan_.view(0), state, ++fast_epoch_, n);
  refs_.set_droop(droop);
}

adc::digital::RawConversion PipelineAdc::raw_conversion(const int* raw) const {
  adc::digital::RawConversion conv;
  conv.stage_codes.assign(stages_.size(), adc::digital::StageCode::kZero);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    conv.stage_codes[i] = static_cast<adc::digital::StageCode>(raw[i]);
  }
  conv.flash_code = static_cast<adc::digital::FlashCode>(raw[stages_.size()]);
  return conv;
}

std::vector<adc::digital::RawConversion> PipelineAdc::raw_capture_fast(std::size_t n) {
  const std::size_t stride = stages_.size() + 1;
  std::vector<int> raw(n * stride);
  capture_fast(n, nullptr, raw.data());
  std::vector<adc::digital::RawConversion> raws;
  raws.reserve(n);
  for (std::size_t k = 0; k < n; ++k) raws.push_back(raw_conversion(raw.data() + k * stride));
  return raws;
}

std::vector<int> PipelineAdc::convert(const adc::dsp::Signal& signal, std::size_t n) {
  reset_state();
  std::vector<int> codes;
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    codes.resize(n);
    fast_plan_.set_signal(signal);
    capture_fast(n, codes.data(), nullptr);
    return codes;
  }
  codes.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = clock_.sample_instant(k);
    const double v = signal.value(t);
    double tracked = v;
    if (config_.enable.tracking_nonlinearity) {
      tracked += sampler_.tracking_error(v, signal.slope(t));
      tracked += sampler_.charge_injection_error(v);
    }
    codes.push_back(correction_.correct(quantize_sample(tracked)));
  }
  return codes;
}

StreamResult PipelineAdc::convert_stream(const adc::dsp::Signal& signal, std::size_t n) {
  reset_state();
  StreamResult result;
  result.latency_cycles = alignment_.latency_cycles();
  result.codes.reserve(n);
  const auto push = [&](const adc::digital::RawConversion& raw) {
    if (auto aligned = alignment_.push(raw)) {
      result.codes.push_back(correction_.correct(*aligned));
    }
  };
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    fast_plan_.set_signal(signal);
    for (const adc::digital::RawConversion& raw : raw_capture_fast(n)) push(raw);
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      const double t = clock_.sample_instant(k);
      const double v = signal.value(t);
      double tracked = v;
      if (config_.enable.tracking_nonlinearity) {
        tracked += sampler_.tracking_error(v, signal.slope(t));
        tracked += sampler_.charge_injection_error(v);
      }
      push(quantize_sample(tracked));
    }
  }
  while (auto aligned = alignment_.flush()) {
    result.codes.push_back(correction_.correct(*aligned));
    if (result.codes.size() >= n) break;
  }
  return result;
}

std::vector<int> PipelineAdc::convert_samples(std::span<const double> voltages) {
  reset_state();
  std::vector<int> codes;
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    codes.resize(voltages.size());
    fast_plan_.set_voltages(voltages.data());
    capture_fast(voltages.size(), codes.data(), nullptr);
    return codes;
  }
  codes.reserve(voltages.size());
  for (double v : voltages) {
    codes.push_back(correction_.correct(quantize_sample(front_end(v))));
  }
  return codes;
}

int PipelineAdc::convert_dc(double v_diff) {
  // Under the fast profile a DC conversion is its own one-sample capture
  // (epoch bump), so repeated calls see fresh noise like exact-profile
  // calls do.
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    int code = 0;
    fast_plan_.set_voltages(&v_diff);
    capture_fast(1, &code, nullptr);
    return code;
  }
  return correction_.correct(quantize_sample(front_end(v_diff)));
}

adc::digital::RawConversion PipelineAdc::convert_dc_raw(double v_diff) {
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    int raw[fast::kMaxStages + 1] = {};
    fast_plan_.set_voltages(&v_diff);
    capture_fast(1, nullptr, raw);
    return raw_conversion(raw);
  }
  return quantize_sample(front_end(v_diff));
}

std::vector<adc::digital::RawConversion> PipelineAdc::convert_raw(
    const adc::dsp::Signal& signal, std::size_t n) {
  reset_state();
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    fast_plan_.set_signal(signal);
    return raw_capture_fast(n);
  }
  std::vector<adc::digital::RawConversion> raws;
  raws.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = clock_.sample_instant(k);
    const double v = signal.value(t);
    double tracked = v;
    if (config_.enable.tracking_nonlinearity) {
      tracked += sampler_.tracking_error(v, signal.slope(t));
      tracked += sampler_.charge_injection_error(v);
    }
    raws.push_back(quantize_sample(tracked));
  }
  return raws;
}

double PipelineAdc::front_end(double v_diff) const {
  // DC path through the sampling front end: charge injection applies (it is
  // a static error); the tracking term vanishes at zero slope.
  if (!config_.enable.tracking_nonlinearity) return v_diff;
  return v_diff + sampler_.charge_injection_error(v_diff);
}

double PipelineAdc::residue_after_stage(std::size_t stage_index, double vin) const {
  require(stage_index < stages_.size(), "residue_after_stage: index out of range");
  const double vref_nominal = config_.full_scale_vpp / 2.0;
  double x = vin;
  for (std::size_t i = 0; i <= stage_index; ++i) {
    const auto d = stages_[i].ideal_decision(x);
    x = stages_[i].residue_target(x, d, vref_nominal);
  }
  return x;
}

double PipelineAdc::stage_bias_current(std::size_t i) const {
  return mirrors_.leg_current(i, bias_->master_current(config_.conversion_rate));
}

double PipelineAdc::master_bias_current() const {
  return bias_->master_current(config_.conversion_rate);
}

double PipelineAdc::pipeline_bias_current(double f_cr) const {
  return mirrors_.total_current(bias_->master_current(f_cr));
}

double PipelineAdc::total_analog_current() const {
  const double master = bias_->master_current(config_.conversion_rate);
  return mirrors_.total_current(master) + bias_->overhead_current() +
         refs_.spec().quiescent_current;
}

}  // namespace adc::pipeline
