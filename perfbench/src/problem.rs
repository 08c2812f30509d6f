//! Seeded synthetic inputs, the accelerator stacks the workloads
//! build, and the bit-for-bit output reference.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use xai_accel::{Accelerator, TpuAccel};
use xai_core::{contributions_batch_on, DistilledModel, Region, SolveStrategy};
use xai_fourier::convolve2d_fft;
use xai_tensor::{Matrix, Result};
use xai_tpu::{DevicePool, Topology, TpuConfig};

/// Pairs the serving workloads distil their model from.
const FIT_PAIRS: usize = 4;

/// Lanes one coalescing-queue flight may carry (as `load_accelerator`).
const MAX_LANES: usize = 256;

/// Which simulated chip a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chip {
    /// `TpuConfig::small_test()`: the serving stack's test chip.
    SmallTest,
    /// `TpuConfig::tpu_v2()`: the paper's Table II chip.
    TpuV2,
}

impl Chip {
    /// The chip's configuration.
    pub fn config(self) -> TpuConfig {
        match self {
            Chip::SmallTest => TpuConfig::small_test(),
            Chip::TpuV2 => TpuConfig::tpu_v2(),
        }
    }
}

/// A fleet: chip model, chip count and fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fleet {
    /// Chip model.
    pub chip: Chip,
    /// Chips in the pool (1 = the unbatched single-chip path).
    pub devices: usize,
    /// Side of the 2-D torus the chips sit on (`None` = flat crossbar).
    pub torus: Option<usize>,
}

impl Fleet {
    /// The unbatched single-chip accelerator of this chip model: the
    /// reference path and the bottom of the layer peel.
    pub fn unbatched(&self) -> TpuAccel {
        TpuAccel::with_config(self.chip.config())
    }

    /// A batching accelerator over a pool of `devices` chips with a
    /// zero batching window (the fabric applies only to the full fleet).
    pub fn pooled(&self, devices: usize) -> Arc<TpuAccel> {
        let mut pool = DevicePool::new(self.chip.config(), devices);
        if let (Some(side), true) = (self.torus, devices == self.devices) {
            pool = pool.with_topology(Topology::torus(side));
        }
        Arc::new(TpuAccel::over_pool(pool, Duration::ZERO, MAX_LANES))
    }

    /// The accelerator the workload itself serves on.
    pub fn serving(&self) -> Arc<TpuAccel> {
        if self.devices > 1 {
            self.pooled(self.devices)
        } else {
            Arc::new(self.unbatched())
        }
    }
}

/// A seeded explanation problem: a generating kernel and input/output
/// pairs `y = x ⊛ k` (circular convolution).
#[derive(Debug, Clone)]
pub struct Problem {
    /// The generating convolution kernel.
    pub kernel: Matrix<f64>,
    /// `(x, y)` pairs; each request explains one of them.
    pub pairs: Vec<(Matrix<f64>, Matrix<f64>)>,
}

impl Problem {
    /// `count` pairs of `size × size` inputs drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Construction errors only.
    pub fn generate(seed: u64, size: usize, count: usize) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel = Matrix::from_fn(size, size, |_, _| rng.random::<f64>() * 0.25)?;
        let pairs = (0..count)
            .map(|_| {
                let x = Matrix::from_fn(size, size, |_, _| rng.random::<f64>() * 2.0 - 1.0)?;
                let y = convolve2d_fft(&x, &kernel)?;
                Ok((x, y))
            })
            .collect::<Result<_>>()?;
        Ok(Problem { kernel, pairs })
    }

    /// The distilled model the serving workloads explain with.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn fit(&self) -> Result<DistilledModel> {
        let n = self.pairs.len().min(FIT_PAIRS);
        DistilledModel::fit(&self.pairs[..n], SolveStrategy::default())
    }

    /// The pairs distillation uses.
    pub fn fit_pairs(&self) -> &[(Matrix<f64>, Matrix<f64>)] {
        &self.pairs[..self.pairs.len().min(FIT_PAIRS)]
    }
}

/// The `grid × grid` occlusion blocks, row-major (the served order).
pub fn regions(size: usize, grid: usize) -> Vec<Region> {
    let b = size / grid;
    (0..grid)
        .flat_map(|by| (0..grid).map(move |bx| Region::Block(by * b, bx * b, b, b)))
        .collect()
}

/// A block-contribution map computed through `acc` exactly as the
/// serving layer lays it out.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn block_map(
    acc: &dyn Accelerator,
    model: &DistilledModel,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    grid: usize,
) -> Result<Matrix<f64>> {
    let scores = contributions_batch_on(acc, model, x, y, &regions(x.rows(), grid))?;
    Matrix::from_vec(grid, grid, scores)
}

/// Reference maps for every pair on the unbatched single-chip path.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn references(
    fleet: &Fleet,
    model: &DistilledModel,
    problem: &Problem,
    grid: usize,
) -> Result<Vec<Matrix<f64>>> {
    let acc = fleet.unbatched();
    problem
        .pairs
        .iter()
        .map(|(x, y)| block_map(&acc, model, x, y, grid))
        .collect()
}

/// `true` when both matrices have the same shape and bit patterns.
pub fn bits_equal(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Flips the lowest mantissa bit of the first element: the negative
/// control that proves the output check can fail.
pub fn corrupt(m: &mut Matrix<f64>) {
    let v = &mut m.as_mut_slice()[0];
    *v = f64::from_bits(v.to_bits() ^ 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Problem::generate(7, 8, 3).unwrap();
        let b = Problem::generate(7, 8, 3).unwrap();
        let c = Problem::generate(8, 8, 3).unwrap();
        assert!(bits_equal(&a.kernel, &b.kernel));
        for (p, q) in a.pairs.iter().zip(&b.pairs) {
            assert!(bits_equal(&p.0, &q.0) && bits_equal(&p.1, &q.1));
        }
        assert!(!bits_equal(&a.kernel, &c.kernel));
        assert!(!bits_equal(&a.pairs[0].0, &c.pairs[0].0));
        // Distinct requests within one seed.
        assert!(!bits_equal(&a.pairs[0].0, &a.pairs[1].0));
    }

    #[test]
    fn the_fitted_model_recovers_the_generating_kernel() {
        let p = Problem::generate(3, 16, 4).unwrap();
        let model = p.fit().unwrap();
        assert!(model.kernel().max_abs_diff(&p.kernel).unwrap() < 1e-6);
    }

    #[test]
    fn corrupt_changes_bits_but_not_shape() {
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f64).unwrap();
        let mut n = m.clone();
        corrupt(&mut n);
        assert!(bits_equal(&m, &m.clone()));
        assert!(!bits_equal(&m, &n));
        assert_eq!(regions(8, 2).len(), 4);
    }
}
