//! Order statistics over measured samples.

use lcrq::util::XorShift64Star;

/// A uniform sample of at most `cap` values from an unbounded stream
/// (Vitter's algorithm R). The buffer is allocated and written up front, so
/// its resident memory is the same on every run.
pub struct Reservoir {
    buf: Vec<u32>,
    len: usize,
    seen: u64,
    rng: XorShift64Star,
}

impl Reservoir {
    /// An empty reservoir; `seed` drives the replacement choices.
    pub fn new(cap: usize, seed: u64) -> Self {
        Self {
            buf: vec![u32::MAX; cap],
            len: 0,
            seen: 0,
            rng: XorShift64Star::new(seed),
        }
    }

    /// Offers one value (saturated to `u32`).
    #[inline]
    pub fn add(&mut self, v: u64) {
        let v = v.min(u32::MAX as u64) as u32;
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = v;
            self.len += 1;
        } else {
            let j = self.rng.next_below(self.seen) as usize;
            if j < self.buf.len() {
                self.buf[j] = v;
            }
        }
    }

    /// Values offered, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn values(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

/// Quantile `q` of `sorted` with linear interpolation between closest
/// ranks (Hyndman–Fan type 7, as numpy's default); 0.0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (reorders nothing: sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Merges tick samples from several reservoirs into sorted nanoseconds.
pub fn sorted_ns<'a>(parts: impl IntoIterator<Item = &'a Reservoir>) -> Vec<f64> {
    let k = crate::clock::ns_per_tick();
    let mut v: Vec<f64> = parts
        .into_iter()
        .flat_map(|r| r.values().iter().map(move |&t| t as f64 * k))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Total values offered to a set of reservoirs.
pub fn seen<'a>(parts: impl IntoIterator<Item = &'a Reservoir>) -> u64 {
    parts.into_iter().map(Reservoir::seen).sum()
}

/// `num / den`, or 0.0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
