//! The reference loop that host-time metrics are scaled by.
//!
//! The benchmark runs on shared virtual machines. On the 2-vCPU Xeon
//! VM it was tuned on, each vCPU switches within a second or two
//! between two speeds about 1.6× apart (another tenant's load on the
//! same physical core), and can stay slow for minutes. Unscaled, runs
//! of the same code differed by up to 28% in throughput. So every
//! measured stretch of a loop is timed between two passes of a fixed
//! reference loop, and its host times are scaled by how fast that loop
//! ran around it: the metrics read in seconds of a host on which one
//! pass takes [`REFERENCE_S`].
//!
//! The loop is harness code, a radix-2 FFT of fixed data that no change
//! to the library can speed up or slow down. It runs between stretches,
//! while the workload is idle.

use crate::clock;
use std::hint::black_box;

/// Seconds one pass takes on the reference host. About the time of an
/// uncontended vCPU of the VM the benchmark was tuned on (1.3 ms there;
/// about 2.1 ms while its core is shared).
pub const REFERENCE_S: f64 = 1.3e-3;

/// Points of the reference transform, and transforms per pass.
const POINTS: usize = 1 << 13;
const TRANSFORMS: usize = 2;

/// Host seconds of one pass now, on the calling thread (the thread
/// that drives the measured loop). The buffers are allocated afresh
/// each pass, as the workloads allocate theirs each op.
pub fn pass_s() -> f64 {
    let mut re: Vec<f64> = (0..POINTS).map(|i| ((i * 7919) % 1000) as f64).collect();
    let mut im = vec![0.0; POINTS];
    let t0 = clock::now();
    for _ in 0..TRANSFORMS {
        fft_in_place(&mut re, &mut im);
    }
    black_box((&re, &im));
    t0.elapsed().as_secs_f64()
}

/// Iterative radix-2 decimation-in-time FFT, twiddles computed on the fly.
fn fft_in_place(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let step = -2.0 * std::f64::consts::PI / len as f64;
        for base in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (s, c) = (step * k as f64).sin_cos();
                let (a, b) = (base + k, base + k + len / 2);
                let (xr, xi) = (re[b] * c - im[b] * s, re[b] * s + im[b] * c);
                re[b] = re[a] - xr;
                im[b] = im[a] - xi;
                re[a] += xr;
                im[a] += xi;
            }
        }
        len <<= 1;
    }
}

/// Factor that turns host seconds of a stretch timed between passes
/// of `before_s` and `after_s` into reference seconds.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / (0.5 * (before_s + after_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_transform_is_an_fft() {
        // An impulse transforms to all ones; a constant to one spike.
        let (mut re, mut im) = (vec![0.0; 8], vec![0.0; 8]);
        re[0] = 1.0;
        fft_in_place(&mut re, &mut im);
        assert!(re.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        assert!(im.iter().all(|&v| v.abs() < 1e-12));
        let (mut re, mut im) = (vec![1.0; 8], vec![0.0; 8]);
        fft_in_place(&mut re, &mut im);
        assert!((re[0] - 8.0).abs() < 1e-12);
        assert!(re[1..].iter().chain(&im).all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn a_slow_host_scales_its_seconds_down() {
        assert_eq!(factor(REFERENCE_S, REFERENCE_S), 1.0);
        // Passes twice as slow: a host second is half a reference second.
        assert_eq!(factor(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
        assert_eq!(factor(REFERENCE_S, 3.0 * REFERENCE_S), 0.5);
        assert!(pass_s() > 0.0);
    }
}
