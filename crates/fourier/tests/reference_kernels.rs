//! Bit-identity against a frozen copy of the earlier transform
//! kernels: the stride-indexed radix-2 loop (one `e^{-2πi·k/n}` table
//! read at `k·(n/len)`, direction branch inside the butterfly) and the
//! out-of-place 2-D path (clone → rows → transpose → rows →
//! transpose). The in-place kernel must reproduce every output bit of
//! those algorithms for every length, shape, direction, batch form and
//! worker count.

use xai_fourier::{Fft2d, FftPlan, Norm, Radix2Plan};
use xai_tensor::{Complex64, Matrix};

/// The earlier radix-2 plan, verbatim in its arithmetic.
struct RefRadix2 {
    n: usize,
    rev: Vec<u32>,
    twiddles: Vec<Complex64>,
}

impl RefRadix2 {
    fn new(n: usize) -> Self {
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        let rev = if n == 1 { vec![0] } else { rev };
        let twiddles = (0..n / 2)
            .map(|k| Complex64::twiddle(k as i64, n))
            .collect();
        RefRadix2 { n, rev, twiddles }
    }

    fn forward(&self, data: &mut [Complex64], norm: Norm) {
        self.transform(data, false);
        let s = norm.forward_scale(self.n);
        if s != 1.0 {
            for v in data.iter_mut() {
                *v = v.scale(s);
            }
        }
    }

    fn inverse(&self, data: &mut [Complex64], norm: Norm) {
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
        assert_eq!(data.len(), n);
        if n == 1 {
            return;
        }
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = if inverse {
                        self.twiddles[k * step].conj()
                    } else {
                        self.twiddles[k * step]
                    };
                    let even = data[start + k];
                    let odd = data[start + k + half] * w;
                    data[start + k] = even + odd;
                    data[start + k + half] = even - odd;
                }
            }
            len *= 2;
        }
    }
}

/// The earlier Bluestein plan, over the earlier radix-2 loop.
struct RefBluestein {
    n: usize,
    m: usize,
    chirp: Vec<Complex64>,
    filter_spec: Vec<Complex64>,
    inner: RefRadix2,
}

impl RefBluestein {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let j2 = ((j as u128 * j as u128) % (2 * n as u128)) as i64;
                Complex64::twiddle(j2, 2 * n)
            })
            .collect();
        let inner = RefRadix2::new(m);
        let mut filter = vec![Complex64::ZERO; m];
        for (j, &c) in chirp.iter().enumerate() {
            filter[j] = c.conj();
            if j != 0 {
                filter[m - j] = c.conj();
            }
        }
        inner.forward(&mut filter, Norm::Backward);
        RefBluestein {
            n,
            m,
            chirp,
            filter_spec: filter,
            inner,
        }
    }

    fn forward(&self, data: &mut [Complex64], norm: Norm) {
        self.convolve(data);
        let s = norm.forward_scale(self.n);
        if s != 1.0 {
            for v in data.iter_mut() {
                *v = v.scale(s);
            }
        }
    }

    fn inverse(&self, data: &mut [Complex64], norm: Norm) {
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.convolve(data);
        let s = norm.inverse_scale(self.n);
        for v in data.iter_mut() {
            *v = v.conj().scale(s);
        }
    }

    fn convolve(&self, data: &mut [Complex64]) {
        let mut a = vec![Complex64::ZERO; self.m];
        for (j, (&x, &c)) in data.iter().zip(&self.chirp).enumerate() {
            a[j] = x * c;
        }
        self.inner.forward(&mut a, Norm::Backward);
        for (v, &f) in a.iter_mut().zip(&self.filter_spec) {
            *v *= f;
        }
        self.inner.inverse(&mut a, Norm::Backward);
        for (k, out) in data.iter_mut().enumerate() {
            *out = a[k] * self.chirp[k];
        }
    }
}

/// The earlier algorithm-selecting 1-D plan.
enum RefPlan {
    Radix2(RefRadix2),
    Bluestein(RefBluestein),
}

impl RefPlan {
    fn new(n: usize) -> Self {
        if n.is_power_of_two() {
            RefPlan::Radix2(RefRadix2::new(n))
        } else {
            RefPlan::Bluestein(RefBluestein::new(n))
        }
    }

    fn apply(&self, data: &mut [Complex64], forward: bool, norm: Norm) {
        match (self, forward) {
            (RefPlan::Radix2(p), true) => p.forward(data, norm),
            (RefPlan::Radix2(p), false) => p.inverse(data, norm),
            (RefPlan::Bluestein(p), true) => p.forward(data, norm),
            (RefPlan::Bluestein(p), false) => p.inverse(data, norm),
        }
    }
}

/// The earlier 2-D path: clone, rows, transpose, rows, transpose.
fn ref_fft2d(x: &Matrix<Complex64>, forward: bool) -> Matrix<Complex64> {
    let (rows, cols) = x.shape();
    let (row_plan, col_plan) = (RefPlan::new(cols), RefPlan::new(rows));
    let mut inter = x.clone();
    for r in 0..rows {
        row_plan.apply(inter.row_mut(r), forward, Norm::Backward);
    }
    let mut t = inter.transpose();
    for c in 0..cols {
        col_plan.apply(t.row_mut(c), forward, Norm::Backward);
    }
    t.transpose()
}

/// Deterministic inputs spanning several magnitudes and both signs
/// (splitmix64 stream), so rounding differences cannot hide.
fn signal(len: usize, seed: u64) -> Vec<Complex64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        unit * 10f64.powi((z % 7) as i32 - 3)
    };
    (0..len).map(|_| Complex64::new(next(), next())).collect()
}

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix<Complex64> {
    Matrix::from_vec(rows, cols, signal(rows * cols, seed)).unwrap()
}

fn assert_bits(expect: &[Complex64], got: &[Complex64], what: &str) {
    assert_eq!(expect.len(), got.len(), "{what}: length");
    for (i, (e, g)) in expect.iter().zip(got).enumerate() {
        assert!(
            e.re.to_bits() == g.re.to_bits() && e.im.to_bits() == g.im.to_bits(),
            "{what}: element {i} differs: {e:?} vs {g:?}"
        );
    }
}

#[test]
fn radix2_matches_the_strided_loop_bit_for_bit() {
    for bits in 0..=10 {
        let n = 1usize << bits;
        let plan = Radix2Plan::new(n);
        let reference = RefRadix2::new(n);
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            let x = signal(n, bits as u64);
            let (mut expect, mut got) = (x.clone(), x.clone());
            reference.forward(&mut expect, norm);
            plan.forward(&mut got, norm);
            assert_bits(&expect, &got, &format!("forward n={n} {norm:?}"));
            reference.inverse(&mut expect, norm);
            plan.inverse(&mut got, norm);
            assert_bits(&expect, &got, &format!("inverse n={n} {norm:?}"));
        }
    }
}

#[test]
fn bluestein_lengths_match_bit_for_bit() {
    for n in [12usize, 20, 96] {
        let plan = FftPlan::new(n);
        let reference = RefPlan::new(n);
        for forward in [true, false] {
            let x = signal(n, n as u64);
            let (mut expect, mut got) = (x.clone(), x);
            reference.apply(&mut expect, forward, Norm::Backward);
            if forward {
                plan.forward(&mut got, Norm::Backward);
            } else {
                plan.inverse(&mut got, Norm::Backward);
            }
            assert_bits(&expect, &got, &format!("n={n} forward={forward}"));
        }
    }
}

/// Power-of-two, Bluestein, mixed and non-square shapes, including
/// the 128² transform of the paper's Table II configuration.
const SHAPES: [(usize, usize); 10] = [
    (1, 1),
    (1, 8),
    (8, 1),
    (8, 32),
    (64, 16),
    (12, 20),
    (96, 12),
    (20, 64),
    (128, 128),
    (256, 8),
];

#[test]
fn every_2d_entry_point_matches_the_transpose_path() {
    for (rows, cols) in SHAPES {
        let plan = Fft2d::new(rows, cols);
        let xs: Vec<_> = (0..3).map(|s| matrix(rows, cols, s + 7)).collect();
        for forward in [true, false] {
            let expect: Vec<_> = xs.iter().map(|x| ref_fft2d(x, forward)).collect();
            let tag = |what: &str| format!("{what} {rows}x{cols} forward={forward}");
            for (x, e) in xs.iter().zip(&expect) {
                let out = if forward {
                    plan.forward(x)
                } else {
                    plan.inverse(x)
                };
                assert_bits(e.as_slice(), out.unwrap().as_slice(), &tag("single"));
                let mut y = x.clone();
                if forward {
                    plan.forward_in_place(&mut y).unwrap();
                } else {
                    plan.inverse_in_place(&mut y).unwrap();
                }
                assert_bits(e.as_slice(), y.as_slice(), &tag("in place"));
            }
            let batch = if forward {
                plan.forward_batch(&xs)
            } else {
                plan.inverse_batch(&xs)
            };
            for (e, b) in expect.iter().zip(batch.unwrap()) {
                assert_bits(e.as_slice(), b.as_slice(), &tag("batch"));
            }
            for workers in [1, 2, 3, 8] {
                let par = if forward {
                    plan.forward_parallel(&xs[0], workers)
                } else {
                    plan.inverse_parallel(&xs[0], workers)
                };
                let what = tag(&format!("parallel workers={workers}"));
                assert_bits(expect[0].as_slice(), par.unwrap().as_slice(), &what);
                // A one-lane batch and the whole batch.
                for lanes in [1, xs.len()] {
                    let batch = if forward {
                        plan.forward_batch_parallel(&xs[..lanes], workers)
                    } else {
                        plan.inverse_batch_parallel(&xs[..lanes], workers)
                    };
                    let what = tag(&format!("batch parallel lanes={lanes} workers={workers}"));
                    for (e, b) in expect.iter().zip(batch.unwrap()) {
                        assert_bits(e.as_slice(), b.as_slice(), &what);
                    }
                }
            }
        }
    }
}

#[test]
fn in_place_shape_mismatch_leaves_the_input_untouched() {
    let plan = Fft2d::new(8, 8);
    let x = matrix(8, 4, 1);
    let mut y = x.clone();
    assert!(plan.forward_in_place(&mut y).is_err());
    assert!(plan.inverse_in_place(&mut y).is_err());
    assert_bits(x.as_slice(), y.as_slice(), "rejected input");
}
