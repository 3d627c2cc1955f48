//! Plan-once/execute-many DSP engine: cached FFT plans and a scratch
//! arena of reusable complex buffers.
//!
//! Every hot caller in the detection pipeline — FFT upsampling, the
//! matched-filter bank, search-and-subtract — runs the same transform
//! sizes thousands of times per campaign (the DW1000 CIR is always
//! 1016 taps, upsampled to 8128). The allocating entry points rebuild
//! twiddles, Bluestein chirps and working buffers on every call; a
//! [`DspContext`] amortizes all of that: plans are built once per size
//! and held in a [`PlanCache`], working memory is recycled through a
//! [`DspScratch`] arena, and the `*_into` entry points
//! ([`crate::convolve_into`], [`crate::correlate_into`],
//! [`crate::upsample_fft_into`], [`crate::MatchedFilter::apply_into`])
//! write into caller-owned output buffers.
//!
//! The planned paths execute the exact same floating-point operations in
//! the exact same order as their allocating counterparts, so outputs are
//! **bit-identical** — the property the campaign determinism contract
//! relies on, asserted by the property tests in `tests/properties.rs`.
//!
//! Plans are shared via [`std::sync::Arc`], so a context is cheap to
//! move into a worker thread and cache hits allocate nothing.
//!
//! # Examples
//!
//! ```
//! use uwb_dsp::{convolve, convolve_into, Complex64, DspContext};
//!
//! # fn main() -> Result<(), uwb_dsp::DspError> {
//! let a: Vec<Complex64> = (0..300).map(|i| Complex64::from_real(i as f64)).collect();
//! let b: Vec<Complex64> = (0..120).map(|i| Complex64::from_real(0.5 * i as f64)).collect();
//! let mut ctx = DspContext::new();
//! let mut out = Vec::new();
//! convolve_into(&a, &b, &mut out, &mut ctx)?; // plans built, buffers pooled
//! convolve_into(&a, &b, &mut out, &mut ctx)?; // steady state: zero allocations
//! assert_eq!(out, convolve(&a, &b)?);
//! # Ok(())
//! # }
//! ```

use crate::backend::DspBackend;
use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::error::DspError;
use crate::fft::FftPlan;
use crate::real_fft::RealFftPlan;
use std::collections::HashMap;
use std::sync::Arc;

/// A cache of FFT plans keyed by transform size.
///
/// Plans are immutable once built and handed out as [`Arc`] clones, so a
/// cache hit costs one atomic increment and zero allocations.
#[derive(Debug, Default)]
pub struct PlanCache {
    radix2: HashMap<usize, Arc<FftPlan>>,
    bluestein: HashMap<usize, Arc<BluesteinPlan>>,
    rfft: HashMap<usize, Arc<RealFftPlan>>,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The radix-2 plan for `size`, building and caching it on first use.
    ///
    /// # Errors
    ///
    /// Propagates [`FftPlan::new`] errors (zero or non-power-of-two size).
    pub fn radix2(&mut self, size: usize) -> Result<Arc<FftPlan>, DspError> {
        if let Some(plan) = self.radix2.get(&size) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(FftPlan::new(size)?);
        self.radix2.insert(size, Arc::clone(&plan));
        Ok(plan)
    }

    /// The arbitrary-length (Bluestein) plan for `size`, building and
    /// caching it on first use. Its inner radix-2 plan is this cache's
    /// own plan of that length (built and cached too if missing), so
    /// the Bluestein and matched-filter paths share one twiddle table.
    ///
    /// # Errors
    ///
    /// Propagates [`BluesteinPlan::new`] errors (zero size).
    pub fn bluestein(&mut self, size: usize) -> Result<Arc<BluesteinPlan>, DspError> {
        if let Some(plan) = self.bluestein.get(&size) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(BluesteinPlan::with_radix2(size, |len| self.radix2(len))?);
        self.bluestein.insert(size, Arc::clone(&plan));
        Ok(plan)
    }

    /// The real-input FFT plan for `size`, building and caching it on
    /// first use.
    ///
    /// # Errors
    ///
    /// Propagates [`RealFftPlan::new`] errors (size below 2 or not a
    /// power of two).
    pub fn rfft(&mut self, size: usize) -> Result<Arc<RealFftPlan>, DspError> {
        if let Some(plan) = self.rfft.get(&size) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(RealFftPlan::new(size)?);
        self.rfft.insert(size, Arc::clone(&plan));
        Ok(plan)
    }

    /// Number of cached plans (all kinds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.radix2.len() + self.bluestein.len() + self.rfft.len()
    }

    /// `true` when no plan has been built yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.radix2.is_empty() && self.bluestein.is_empty() && self.rfft.is_empty()
    }
}

/// A pool of reusable `Vec<Complex64>` working buffers.
///
/// [`DspScratch::acquire_zeroed`] hands out a zero-filled buffer of the
/// requested length; [`DspScratch::release`] returns it to the pool with
/// its capacity intact. Once the pool has seen each hot-path size once,
/// acquire/release cycles allocate nothing.
#[derive(Debug, Default)]
pub struct DspScratch {
    pool: Vec<Vec<Complex64>>,
}

impl DspScratch {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer of exactly `len` zeros. Reuses pooled capacity when any
    /// is available (largest-capacity buffer first, so big transforms
    /// keep their big buffers).
    pub fn acquire_zeroed(&mut self, len: usize) -> Vec<Complex64> {
        let mut buf = self.acquire();
        buf.resize(len, Complex64::ZERO);
        buf
    }

    /// An empty buffer (length 0) with whatever pooled capacity best
    /// fits; for callers that build output with `extend`-style writes.
    pub fn acquire(&mut self) -> Vec<Complex64> {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn release(&mut self, buf: Vec<Complex64>) {
        self.pool.push(buf);
    }

    /// Buffers currently parked in the pool.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Plans plus scratch: everything a planned DSP call needs.
///
/// Build one per worker (contexts are cheap but not shared — each worker
/// thread owns its own) and thread it through the `*_into` entry points.
///
/// A context also carries its [`DspBackend`] selection and the forward
/// spectra of matched-filter kernels for both backends' FFT paths. The
/// default remains [`DspBackend::ScalarF64`], whose kernels are
/// bit-identical to the historical pipeline: its cached spectra come
/// from the same radix-2 transform the per-call convolution runs, so
/// caching changes how often a template is transformed, never the
/// result.
#[derive(Debug, Default)]
pub struct DspContext {
    /// Cached FFT plans.
    pub plans: PlanCache,
    /// Reusable working buffers.
    pub scratch: DspScratch,
    /// Which kernel set [`crate::Kernels`] calls dispatch to.
    backend: DspBackend,
    /// Cached forward spectra of matched-filter kernels, keyed by
    /// `(backend, kernel_id, transform_len)`. The backend is part of
    /// the key because the scalar and real-FFT paths build a template's
    /// spectrum through different transforms (equal only up to
    /// rounding), and neither may ever serve the other. Entries live as
    /// long as the context (one transform-length spectrum per template),
    /// so a context is meant to serve a fixed template bank.
    pub(crate) kernel_spectra: HashMap<(DspBackend, u64, usize), Arc<Vec<Complex64>>>,
}

impl DspContext {
    /// A context with empty caches and the default
    /// ([`DspBackend::ScalarF64`]) backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A context dispatching to the given backend.
    #[must_use]
    pub fn with_backend(backend: DspBackend) -> Self {
        Self {
            backend,
            ..Self::default()
        }
    }

    /// A context whose backend comes from the `UWB_DSP_BACKEND`
    /// environment knob (unset → the bit-identical f64 default).
    #[must_use]
    pub fn from_env() -> Self {
        Self::with_backend(DspBackend::from_env())
    }

    /// The backend this context dispatches to.
    #[must_use]
    pub fn backend(&self) -> DspBackend {
        self.backend
    }

    /// Switches the backend. Cached plans, scratch, and kernel spectra
    /// are retained: plans and scratch are keyed by size alone and are
    /// backend-neutral, while kernel spectra are keyed by backend, so a
    /// switch never serves one backend's spectra to another.
    pub fn set_backend(&mut self, backend: DspBackend) {
        self.backend = backend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_reuses_plans() {
        let mut cache = PlanCache::new();
        let a = cache.radix2(64).unwrap();
        let b = cache.radix2(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same size must hit the cache");
        assert_eq!(cache.len(), 1);
        let c = cache.bluestein(1016).unwrap();
        let d = cache.bluestein(1016).unwrap();
        assert!(Arc::ptr_eq(&c, &d));
        // The Bluestein 1016 plan registers the radix-2 2048 plan its
        // circular convolution runs on, and holds that very plan.
        assert_eq!(cache.len(), 3);
        let inner = cache.radix2(2048).unwrap();
        assert!(Arc::ptr_eq(c.radix2_plan(), &inner));
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
    }

    #[test]
    fn plan_cache_propagates_errors() {
        let mut cache = PlanCache::new();
        assert!(cache.radix2(0).is_err());
        assert!(cache.radix2(100).is_err(), "non-power-of-two radix-2");
        assert!(cache.bluestein(0).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn scratch_recycles_capacity() {
        let mut scratch = DspScratch::new();
        let buf = scratch.acquire_zeroed(256);
        assert_eq!(buf.len(), 256);
        assert!(buf.iter().all(|z| *z == Complex64::ZERO));
        let ptr = buf.as_ptr();
        scratch.release(buf);
        assert_eq!(scratch.pooled(), 1);
        let again = scratch.acquire_zeroed(128);
        assert_eq!(again.as_ptr(), ptr, "pooled buffer must be reused");
        assert_eq!(again.len(), 128);
        assert_eq!(scratch.pooled(), 0);
    }

    #[test]
    fn scratch_zeroes_recycled_buffers() {
        let mut scratch = DspScratch::new();
        let mut buf = scratch.acquire_zeroed(8);
        buf.iter_mut().for_each(|z| *z = Complex64::ONE);
        scratch.release(buf);
        let buf = scratch.acquire_zeroed(8);
        assert!(buf.iter().all(|z| *z == Complex64::ZERO));
    }
}
