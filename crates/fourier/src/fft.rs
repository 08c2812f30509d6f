//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! O(N log N) for power-of-two lengths; arbitrary lengths are handled
//! by [`crate::bluestein`]. The implementation is in-place with a
//! precomputed bit-reversal permutation and per-stage twiddle tables
//! so that a plan can be reused across the many row/column transforms
//! of the 2-D decomposition.

use crate::norm::Norm;
use xai_tensor::Complex64;

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Precomputed state for radix-2 transforms of a fixed length.
#[derive(Debug, Clone)]
pub struct Radix2Plan {
    n: usize,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Forward twiddles laid out stage by stage: the stage with
    /// half-length `h` reads `e^{-2πi·k/(2h)}` for k in 0..h from
    /// `fwd[h-1..2h-1]`, so its butterflies walk the table
    /// contiguously (n − 1 entries in all).
    fwd: Vec<Complex64>,
    /// The conjugates of `fwd`, same layout, for the inverse.
    inv: Vec<Complex64>,
}

impl Radix2Plan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two — length selection is the
    /// caller's (i.e. [`crate::plan::FftPlan`]'s) responsibility.
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n),
            "radix-2 FFT requires power-of-two length, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        let rev = if n == 1 { vec![0] } else { rev };
        // Stage `h` uses the length-n twiddles at stride n/(2h): the
        // very values a strided walk of one `e^{-2πi·k/n}` table reads,
        // copied out so every stage's walk is contiguous.
        let fwd: Vec<Complex64> = std::iter::successors(Some(1), |h| Some(h * 2))
            .take_while(|&h| h < n)
            .flat_map(|h| (0..h).map(move |k| Complex64::twiddle((k * (n / (2 * h))) as i64, n)))
            .collect();
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Radix2Plan { n, rev, fwd, inv }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT with the given normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64], norm: Norm) {
        self.transform(data, false);
        let s = norm.forward_scale(self.n);
        if s != 1.0 {
            for v in data.iter_mut() {
                *v = v.scale(s);
            }
        }
    }

    /// In-place inverse FFT with the given normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64], norm: Norm) {
        self.transform(data, true);
        let s = norm.inverse_scale(self.n);
        if s != 1.0 {
            for v in data.iter_mut() {
                *v = v.scale(s);
            }
        }
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "buffer length must equal plan length");
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative butterflies, one contiguous twiddle slice per
        // stage; the direction is chosen once, outside the loops.
        let table = if inverse { &self.inv } else { &self.fwd };
        let mut half = 1;
        while half < n {
            let tw = &table[half - 1..2 * half - 1];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let even = *a;
                    let odd = *b * w;
                    *a = even + odd;
                    *b = even - odd;
                }
            }
            half *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};

    fn max_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (x, y)| m.max((*x - *y).abs()))
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    ((i * 7 + 3) % 11) as f64 - 5.0,
                    ((i * 13 + 1) % 17) as f64 * 0.25,
                )
            })
            .collect()
    }

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(96));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plan_rejects_non_power_of_two() {
        let _ = Radix2Plan::new(12);
    }

    #[test]
    fn matches_naive_dft_for_all_power_sizes() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let x = signal(n);
            let expect = dft(&x, Norm::Backward);
            let mut got = x.clone();
            Radix2Plan::new(n).forward(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        for n in [2usize, 8, 32] {
            let x = signal(n);
            let expect = idft(&x, Norm::Backward);
            let mut got = x.clone();
            Radix2Plan::new(n).inverse(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn roundtrip_all_norms() {
        let n = 64;
        let x = signal(n);
        let plan = Radix2Plan::new(n);
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            let mut buf = x.clone();
            plan.forward(&mut buf, norm);
            plan.inverse(&mut buf, norm);
            assert!(max_diff(&x, &buf) < 1e-9, "{norm:?}");
        }
    }

    #[test]
    fn plan_is_reusable() {
        let plan = Radix2Plan::new(16);
        for trial in 0..4 {
            let mut x = signal(16);
            x[0] = Complex64::new(trial as f64, 0.0);
            let expect = dft(&x, Norm::Backward);
            plan.forward(&mut x, Norm::Backward);
            assert!(max_diff(&expect, &x) < 1e-10);
        }
    }

    #[test]
    fn length_one_is_identity() {
        let plan = Radix2Plan::new(1);
        let mut x = vec![Complex64::new(5.0, -1.0)];
        plan.forward(&mut x, Norm::Backward);
        assert_eq!(x[0], Complex64::new(5.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = Radix2Plan::new(8);
        let mut x = vec![Complex64::ZERO; 4];
        plan.forward(&mut x, Norm::Backward);
    }

    #[test]
    fn parseval_holds() {
        let n = 128;
        let x = signal(n);
        let mut spec = x.clone();
        Radix2Plan::new(n).forward(&mut spec, Norm::Ortho);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        assert!((te - fe).abs() < 1e-8);
    }
}
