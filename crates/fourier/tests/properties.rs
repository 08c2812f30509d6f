//! Property-based tests for the Fourier library: every fast algorithm
//! must agree with the naive definition, and the classic DFT theorems
//! must hold on random data.

use proptest::prelude::*;
use xai_fourier::{
    convolve2d_fft, dft, fft2d, fft2d_batch, fft2d_via_matmul, idft, ifft2d, Fft2d, FftPlan, Norm,
};
use xai_tensor::conv::conv2d_circular;
use xai_tensor::{Complex64, Matrix};

fn complex_vec(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), n).prop_map(|v| {
        v.into_iter()
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    })
}

fn real_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("length matches"))
}

fn max_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((*x - *y).abs()))
}

proptest! {
    #[test]
    fn plan_matches_naive_any_length(n in 1usize..48, seed_data in complex_vec(48)) {
        let x = &seed_data[..n];
        let expect = dft(x, Norm::Backward);
        let mut got = x.to_vec();
        FftPlan::new(n).forward(&mut got, Norm::Backward);
        prop_assert!(max_diff(&expect, &got) < 1e-7);
    }

    #[test]
    fn roundtrip_any_length(n in 1usize..48, seed_data in complex_vec(48)) {
        let x = &seed_data[..n];
        let plan = FftPlan::new(n);
        let mut buf = x.to_vec();
        plan.forward(&mut buf, Norm::Ortho);
        plan.inverse(&mut buf, Norm::Ortho);
        prop_assert!(max_diff(x, &buf) < 1e-8);
    }

    #[test]
    fn parseval_energy_conservation(x in complex_vec(32)) {
        let spec = dft(&x, Norm::Ortho);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((te - fe).abs() < 1e-6 * (1.0 + te));
    }

    #[test]
    fn idft_undoes_dft(x in complex_vec(20)) {
        let back = idft(&dft(&x, Norm::Backward), Norm::Backward);
        prop_assert!(max_diff(&x, &back) < 1e-8);
    }

    #[test]
    fn fft2d_roundtrip(x in real_matrix(8, 8)) {
        let c = x.to_complex();
        let back = ifft2d(&fft2d(&c).unwrap()).unwrap();
        prop_assert!(c.max_abs_diff(&back).unwrap() < 1e-8);
    }

    #[test]
    fn matmul_form_agrees_with_fft2d(x in real_matrix(6, 5)) {
        let c = x.to_complex();
        let a = fft2d(&c).unwrap();
        let b = fft2d_via_matmul(&c, Norm::Backward).unwrap();
        prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-7);
    }

    #[test]
    fn convolution_theorem(x in real_matrix(6, 6), k in real_matrix(6, 6)) {
        let fast = convolve2d_fft(&x, &k).unwrap();
        let direct = conv2d_circular(&x, &k).unwrap();
        prop_assert!(fast.max_abs_diff(&direct).unwrap() < 1e-7);
    }

    #[test]
    fn dft_linearity(a in complex_vec(16), b in complex_vec(16), s in -5.0f64..5.0) {
        let combined: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y.scale(s)).collect();
        let lhs = dft(&combined, Norm::Backward);
        let fa = dft(&a, Norm::Backward);
        let fb = dft(&b, Norm::Backward);
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y.scale(s)).collect();
        prop_assert!(max_diff(&lhs, &rhs) < 1e-7);
    }

    #[test]
    fn batch_transform_bit_identical_to_per_matrix(
        m in 1usize..9,
        n in 1usize..9,
        b in 0usize..5,
        workers in 1usize..8,
        seed_data in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 8 * 8 * 4),
    ) {
        // Random shapes (radix-2 and Bluestein lengths), batch sizes
        // including 0 and 1, and worker counts up to well past the
        // row count: both batch schedules must reproduce per-matrix
        // transforms BIT for bit.
        let xs: Vec<Matrix<Complex64>> = (0..b)
            .map(|i| {
                Matrix::from_fn(m, n, |r, c| {
                    let (re, im) = seed_data[(i * m * n + r * n + c) % seed_data.len()];
                    Complex64::new(re, im)
                })
                .unwrap()
            })
            .collect();
        let plan = Fft2d::new(m, n);
        let per: Vec<_> = xs.iter().map(|x| plan.forward(x).unwrap()).collect();
        let fused = plan.forward_batch(&xs).unwrap();
        let sharded = plan.forward_batch_parallel(&xs, workers).unwrap();
        prop_assert_eq!(fused.len(), xs.len());
        for ((a, f), s) in per.iter().zip(&fused).zip(&sharded) {
            prop_assert_eq!(a.as_slice(), f.as_slice());
            prop_assert_eq!(a.as_slice(), s.as_slice());
        }
        // The one-shot free function agrees too.
        let free = fft2d_batch(&xs).unwrap();
        for (a, f) in per.iter().zip(&free) {
            prop_assert_eq!(a.as_slice(), f.as_slice());
        }
        // And the inverse path.
        let per_inv: Vec<_> = per.iter().map(|x| plan.inverse(x).unwrap()).collect();
        let inv = plan.inverse_batch_parallel(&per, workers).unwrap();
        for (a, i) in per_inv.iter().zip(&inv) {
            prop_assert_eq!(a.as_slice(), i.as_slice());
        }
    }

    #[test]
    fn spectrum_of_real_signal_is_hermitian(x in real_matrix(1, 24)) {
        let signal: Vec<Complex64> = x.row(0).iter().map(|&v| Complex64::from_real(v)).collect();
        let mut spec = signal.clone();
        FftPlan::new(24).forward(&mut spec, Norm::Backward);
        for k in 1..24 {
            prop_assert!((spec[k] - spec[24 - k].conj()).abs() < 1e-8);
        }
    }
}
