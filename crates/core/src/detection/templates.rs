//! Detection templates: sampled pulse shapes ready for matched filtering.
//!
//! The paper identifies the DW1000 pulse shape with a cable measurement
//! campaign (Sect. IV); our substitute is the analytic [`PulseShape`]. A
//! [`DetectionTemplate`] samples one shape at the detection sample rate
//! (the upsampled CIR rate), normalized to unit energy so that matched
//! filter outputs of *different* templates are directly comparable — the
//! property the pulse-shape identification (Sect. V) relies on.

use uwb_dsp::{Complex64, DspContext, MatchedFilter};
use uwb_radio::{PulseShape, TcPgDelay};

/// A pulse template prepared for detection at a fixed sample rate.
#[derive(Debug, Clone)]
pub struct DetectionTemplate {
    /// Index of this shape within the template bank.
    pub shape_index: usize,
    /// The register value the shape corresponds to, if built from one.
    pub register: Option<TcPgDelay>,
    pulse: PulseShape,
    filter: MatchedFilter,
    /// Offset in samples from template start to the pulse center.
    peak_offset: usize,
    sample_period_s: f64,
}

impl DetectionTemplate {
    /// Samples `pulse` at `sample_period_s` and builds the matched filter.
    ///
    /// # Panics
    ///
    /// Panics if the sample period is not strictly positive and finite
    /// (propagated from [`PulseShape::sample`]).
    pub fn new(pulse: PulseShape, shape_index: usize, sample_period_s: f64) -> Self {
        let sampled = pulse.sample(sample_period_s);
        let filter =
            MatchedFilter::from_real(&sampled.samples).expect("pulse templates are never empty");
        Self {
            shape_index,
            register: pulse.register(),
            pulse,
            filter,
            peak_offset: sampled.peak_index,
            sample_period_s,
        }
    }

    /// The analytic pulse behind this template.
    pub fn pulse(&self) -> &PulseShape {
        &self.pulse
    }

    /// Template length `N_p` in samples.
    pub fn len(&self) -> usize {
        self.filter.len()
    }

    /// `true` when the template holds no samples (never for a constructed
    /// template; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.filter.is_empty()
    }

    /// The sample period this template was built for.
    pub fn sample_period_s(&self) -> f64 {
        self.sample_period_s
    }

    /// Offset in samples from template start to the pulse center.
    pub fn peak_offset(&self) -> usize {
        self.peak_offset
    }

    /// Matched-filter output (complex, template-start-aligned, same length
    /// as the signal). Because the template is unit-energy, outputs are
    /// comparable across templates of different widths.
    pub fn matched_filter(&self, signal: &[Complex64]) -> Vec<Complex64> {
        self.filter
            .apply(signal)
            .expect("signal validated by caller")
    }

    /// Planned variant of [`DetectionTemplate::matched_filter`]: writes
    /// the output into `out`, drawing cached plans and working buffers
    /// from `ctx`. Bit-identical values; allocation-free in steady state.
    pub fn matched_filter_into(
        &self,
        signal: &[Complex64],
        out: &mut Vec<Complex64>,
        ctx: &mut DspContext,
    ) {
        self.filter
            .apply_into(signal, out, ctx)
            .expect("signal validated by caller");
    }

    /// The prepared matched filter behind this template, for callers that
    /// dispatch through the backend-generic [`uwb_dsp::Kernels`] entry
    /// points (which key their kernel-spectrum caches on the filter).
    pub fn filter(&self) -> &MatchedFilter {
        &self.filter
    }

    /// Converts a start-aligned matched-filter peak index to the pulse
    /// center delay in seconds.
    pub fn center_delay_s(&self, start_index_frac: f64) -> f64 {
        (start_index_frac + self.peak_offset as f64) * self.sample_period_s
    }

    /// Estimates the complex pulse amplitude at a fractional center delay
    /// `tau_s` by projecting the signal onto the analytically shifted
    /// pulse — exact even for off-grid delays.
    pub fn amplitude_at(&self, signal: &[Complex64], tau_s: f64) -> Complex64 {
        let (lo, hi) = self.support_range(signal.len(), tau_s);
        uwb_obs::profile::work("template.eval", hi.saturating_sub(lo) as u64);
        let mut num = Complex64::ZERO;
        let mut den = 0.0;
        for (n, sample) in signal.iter().enumerate().take(hi).skip(lo) {
            let p = self.pulse.evaluate(n as f64 * self.sample_period_s - tau_s);
            if p != 0.0 {
                num += sample.scale(p);
                den += p * p;
            }
        }
        if den > 0.0 {
            num.scale(1.0 / den)
        } else {
            Complex64::ZERO
        }
    }

    /// Identification score of this template for a pulse centered at
    /// `tau_s`: the magnitude of the unit-energy-normalized correlation
    /// (`α̂_{k,i}` in the paper's Sect. V).
    pub fn score_at(&self, signal: &[Complex64], tau_s: f64) -> f64 {
        let (lo, hi) = self.support_range(signal.len(), tau_s);
        uwb_obs::profile::work("template.eval", hi.saturating_sub(lo) as u64);
        let mut num = Complex64::ZERO;
        let mut energy = 0.0;
        for (n, sample) in signal.iter().enumerate().take(hi).skip(lo) {
            let p = self.pulse.evaluate(n as f64 * self.sample_period_s - tau_s);
            if p != 0.0 {
                num += sample.scale(p);
                energy += p * p;
            }
        }
        if energy > 0.0 {
            num.abs() / energy.sqrt()
        } else {
            0.0
        }
    }

    /// Identification scores over a window of grid delays: `out[i]` is
    /// `score_at(signal, (lo + i) as f64 * period_s)` bit for bit, for
    /// `lo + i` from `lo` through `hi` clipped to the last signal sample
    /// (empty when `lo` is past the end).
    ///
    /// The refinement re-search scores every delay of a window, so the
    /// same pulse arguments recur at each template offset `n − l`: both
    /// `n·Ts` and `l·Ts` are multiples of one ulp and their difference is
    /// exact. `memo` keys each value on the exact bits of its argument,
    /// so a reused value *is* `evaluate(t)`; only the number of analytic
    /// evaluations changes. `template.eval` counts those, and
    /// `template.memo_hit` the reused ones; their sum is what per-delay
    /// `score_at` calls would count as `template.eval`.
    pub fn score_window_into(
        &self,
        signal: &[Complex64],
        lo: usize,
        hi: usize,
        period_s: f64,
        out: &mut Vec<f64>,
        memo: &mut PulseMemo,
    ) {
        let end = hi.saturating_add(1).min(signal.len());
        out.clear();
        out.reserve(end.saturating_sub(lo));
        // Offsets `n − l` of the support lie within ±(peak_offset + 2);
        // any other offset is evaluated without the memo.
        let radius = self.peak_offset + 2;
        memo.reset(2 * radius + 1);
        let (mut evals, mut hits) = (0u64, 0u64);
        for l in lo..end {
            let tau_s = l as f64 * period_s;
            let (s_lo, s_hi) = self.support_range(signal.len(), tau_s);
            let mut num = Complex64::ZERO;
            let mut energy = 0.0;
            for (n, sample) in signal.iter().enumerate().take(s_hi).skip(s_lo) {
                let t = n as f64 * self.sample_period_s - tau_s;
                let (p, hit) = memo.evaluate((n + radius).wrapping_sub(l), t, &self.pulse);
                if hit {
                    hits += 1;
                } else {
                    evals += 1;
                }
                if p != 0.0 {
                    num += sample.scale(p);
                    energy += p * p;
                }
            }
            out.push(if energy > 0.0 {
                num.abs() / energy.sqrt()
            } else {
                0.0
            });
        }
        uwb_obs::profile::work("template.eval", evals);
        uwb_obs::profile::work("template.memo_hit", hits);
    }

    /// Subtracts `amplitude · p(t − tau_s)` from the signal in place —
    /// step 5 of the paper's detection algorithm.
    pub fn subtract(&self, signal: &mut [Complex64], tau_s: f64, amplitude: Complex64) {
        let (lo, hi) = self.support_range(signal.len(), tau_s);
        uwb_obs::profile::work("template.subtract", hi.saturating_sub(lo) as u64);
        for (n, sample) in signal.iter_mut().enumerate().take(hi).skip(lo) {
            let p = self.pulse.evaluate(n as f64 * self.sample_period_s - tau_s);
            if p != 0.0 {
                *sample -= amplitude.scale(p);
            }
        }
    }

    /// Sample-index range covering the pulse support around `tau_s`.
    fn support_range(&self, signal_len: usize, tau_s: f64) -> (usize, usize) {
        let half = self.pulse.duration_s() / 2.0;
        let lo = ((tau_s - half) / self.sample_period_s).floor().max(0.0) as usize;
        let hi = (((tau_s + half) / self.sample_period_s).ceil() as usize + 1).min(signal_len);
        (lo.min(signal_len), hi)
    }
}

/// Ways per offset slot of a [`PulseMemo`].
const MEMO_WAYS: usize = 4;

/// Reusable memo of analytic pulse values for
/// [`DetectionTemplate::score_window_into`]: per template offset slot,
/// up to four `(argument bits, value)` pairs — about 47 KB for
/// the widest shape of a four-shape bank at ×8 upsampling. Each window
/// call starts from an empty memo, so what it evaluates depends only on
/// its inputs, never on earlier calls.
#[derive(Debug, Default)]
pub struct PulseMemo {
    ways: Vec<(u64, f64)>,
    /// Number of filled ways per slot.
    filled: Vec<u8>,
}

impl PulseMemo {
    /// An empty memo; it grows to the widest template on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties every slot, growing to at least `slots` slots.
    fn reset(&mut self, slots: usize) {
        if self.filled.len() < slots {
            self.filled.resize(slots, 0);
            self.ways.resize(slots * MEMO_WAYS, (0, 0.0));
        }
        self.filled.fill(0);
    }

    /// `pulse.evaluate(t)`, reused from `slot` when it holds the exact
    /// bits of `t`; the flag tells whether it was. A miss is stored while
    /// the slot has a free way; a slot past the end stores nothing.
    fn evaluate(&mut self, slot: usize, t: f64, pulse: &PulseShape) -> (f64, bool) {
        let Some(filled) = self.filled.get_mut(slot) else {
            return (pulse.evaluate(t), false);
        };
        let key = t.to_bits();
        let ways = &mut self.ways[slot * MEMO_WAYS..(slot + 1) * MEMO_WAYS];
        if let Some(&(_, p)) = ways[..usize::from(*filled)].iter().find(|w| w.0 == key) {
            return (p, true);
        }
        let p = pulse.evaluate(t);
        if usize::from(*filled) < MEMO_WAYS {
            ways[usize::from(*filled)] = (key, p);
            *filled += 1;
        }
        (p, false)
    }
}

/// A template bank slice goes straight to
/// [`uwb_dsp::Kernels::matched_filter_bank_mags_into`].
impl AsRef<MatchedFilter> for DetectionTemplate {
    fn as_ref(&self) -> &MatchedFilter {
        &self.filter
    }
}

/// Builds a bank of detection templates from register values.
pub fn template_bank(
    registers: &[TcPgDelay],
    channel: uwb_radio::Channel,
    sample_period_s: f64,
) -> Vec<DetectionTemplate> {
    registers
        .iter()
        .enumerate()
        .map(|(i, &reg)| {
            DetectionTemplate::new(PulseShape::from_register(reg, channel), i, sample_period_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_radio::{Channel, RadioConfig};

    const TS: f64 = 1.0016e-9 / 8.0; // upsampled by 8

    fn template() -> DetectionTemplate {
        DetectionTemplate::new(PulseShape::from_config(&RadioConfig::default()), 0, TS)
    }

    fn render(pulse: &PulseShape, tau_s: f64, amp: Complex64, len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|n| amp.scale(pulse.evaluate(n as f64 * TS - tau_s)))
            .collect()
    }

    #[test]
    fn matched_filter_peak_locates_pulse_center() {
        let t = template();
        let tau = 300.0 * TS;
        let signal = render(t.pulse(), tau, Complex64::from_real(0.8), 1000);
        let out = t.matched_filter(&signal);
        let mags: Vec<f64> = out.iter().map(|z| z.abs()).collect();
        let (l, _) = uwb_dsp::argmax(&mags).unwrap();
        let recovered = t.center_delay_s(l as f64);
        assert!(
            (recovered - tau).abs() < TS,
            "recovered {recovered}, true {tau}"
        );
    }

    #[test]
    fn amplitude_at_recovers_complex_amplitude() {
        let t = template();
        let amp = Complex64::from_polar(0.37, 2.1);
        // Off-grid delay.
        let tau = 123.456 * TS;
        let signal = render(t.pulse(), tau, amp, 600);
        let est = t.amplitude_at(&signal, tau);
        assert!((est - amp).abs() < 1e-9, "est {est}, true {amp}");
    }

    #[test]
    fn subtract_removes_pulse_completely() {
        let t = template();
        let amp = Complex64::from_polar(1.3, -0.4);
        let tau = 200.7 * TS;
        let mut signal = render(t.pulse(), tau, amp, 600);
        t.subtract(&mut signal, tau, amp);
        let residual: f64 = signal.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(residual < 1e-12, "residual {residual}");
    }

    #[test]
    fn score_is_highest_for_matching_template() {
        let bank = template_bank(&TcPgDelay::spread(3).unwrap(), Channel::Ch7, TS);
        for (i, source) in bank.iter().enumerate() {
            let tau = 400.0 * TS;
            let signal = render(source.pulse(), tau, Complex64::from_real(1.0), 1200);
            let scores: Vec<f64> = bank.iter().map(|t| t.score_at(&signal, tau)).collect();
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(best, i, "scores {scores:?}");
        }
    }

    #[test]
    fn score_scales_linearly_with_amplitude() {
        let t = template();
        let tau = 250.0 * TS;
        let s1 = render(t.pulse(), tau, Complex64::from_real(1.0), 800);
        let s2 = render(t.pulse(), tau, Complex64::from_real(2.5), 800);
        let r = t.score_at(&s2, tau) / t.score_at(&s1, tau);
        assert!((r - 2.5).abs() < 1e-9);
    }

    #[test]
    fn support_near_signal_edges_is_clipped() {
        let t = template();
        // Pulse centered right at sample 0 and at the end: no panic.
        let signal = vec![Complex64::ONE; 100];
        let _ = t.amplitude_at(&signal, 0.0);
        let _ = t.score_at(&signal, 99.0 * TS);
        let mut sig = signal;
        t.subtract(&mut sig, 0.0, Complex64::ONE);
    }

    #[test]
    fn bank_indices_and_registers() {
        let regs = TcPgDelay::spread(4).unwrap();
        let bank = template_bank(&regs, Channel::Ch7, TS);
        assert_eq!(bank.len(), 4);
        for (i, t) in bank.iter().enumerate() {
            assert_eq!(t.shape_index, i);
            assert_eq!(t.register, Some(regs[i]));
        }
    }
}
