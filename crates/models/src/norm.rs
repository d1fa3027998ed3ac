//! Target normalization: performance values are heavy-tailed (milliseconds
//! spanning five orders of magnitude), so models train on standardized
//! `ln(1 + y)` and predictions are mapped back.

/// A fitted log-standardization transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetNorm {
    mean: f64,
    std: f64,
}

bao_common::json_record!(TargetNorm { mean, std });

impl TargetNorm {
    /// Fit on raw targets (values clamped at 0 before the log).
    pub fn fit(targets: &[f64]) -> TargetNorm {
        let logs: Vec<f64> = targets.iter().map(|&y| y.max(0.0).ln_1p()).collect();
        let n = logs.len().max(1) as f64;
        let mean = logs.iter().sum::<f64>() / n;
        let var = logs.iter().map(|&l| (l - mean) * (l - mean)).sum::<f64>() / n;
        TargetNorm { mean, std: var.sqrt().max(1e-6) }
    }

    pub fn forward(&self, y: f64) -> f64 {
        (y.max(0.0).ln_1p() - self.mean) / self.std
    }

    pub fn inverse(&self, z: f64) -> f64 {
        (z * self.std + self.mean).exp_m1().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let norm = TargetNorm::fit(&[10.0, 100.0, 1_000.0, 50_000.0]);
        for y in [0.0, 1.0, 99.0, 12_345.0] {
            let z = norm.forward(y);
            assert!((norm.inverse(z) - y).abs() < 1e-6 * (1.0 + y), "y={y}");
        }
    }

    #[test]
    fn standardizes() {
        let targets = [10.0, 100.0, 1_000.0, 10_000.0];
        let norm = TargetNorm::fit(&targets);
        let zs: Vec<f64> = targets.iter().map(|&y| norm.forward(y)).collect();
        let mean: f64 = zs.iter().sum::<f64>() / zs.len() as f64;
        let var: f64 = zs.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / zs.len() as f64;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        // constant targets: std floored, no NaN
        let norm = TargetNorm::fit(&[5.0, 5.0, 5.0]);
        assert!(norm.forward(5.0).abs() < 1e-3);
        assert!((norm.inverse(norm.forward(5.0)) - 5.0).abs() < 1e-3);
        // empty: still usable
        let norm = TargetNorm::fit(&[]);
        assert!(norm.forward(1.0).is_finite());
        // negatives clamp to zero
        assert!(norm.forward(-3.0).is_finite());
        assert_eq!(norm.inverse(-1e9), 0.0);
    }
}
