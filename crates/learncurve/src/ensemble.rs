//! Weighted ensemble prediction ("weighted probabilistic learning
//! curve model", §3.5).
//!
//! All families are fitted to the observed prefix; each is weighted by
//! goodness-of-fit (inverse-MSE softmax). The prediction at a target
//! iteration is the weighted mean of family extrapolations, and the
//! confidence combines the (inverse) ensemble spread with the residual
//! fit error — when the families agree and fit well, confidence is
//! high.

use crate::families::{fit_family, CurveFamily, FittedCurve};
use serde::{Deserialize, Serialize};

/// A point prediction with confidence ∈ [0, 1].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted accuracy, clamped to [0, 1].
    pub accuracy: f64,
    /// Confidence in the prediction (1 = the families agree perfectly
    /// and fit the data perfectly).
    pub confidence: f64,
}

/// Fitted ensemble over the observed learning-curve prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnsemblePredictor {
    fits: Vec<FittedCurve>,
    weights: Vec<f64>,
    residual_rmse: f64,
}

impl EnsemblePredictor {
    /// Minimum observations for a meaningful fit; below this, use
    /// [`EnsemblePredictor::fit`]'s `None` return to keep training.
    pub const MIN_POINTS: usize = 5;

    /// Fit the ensemble to `(iteration, accuracy)` observations.
    /// Returns `None` when there are too few points to extrapolate.
    pub fn fit(points: &[(f64, f64)]) -> Option<Self> {
        if points.len() < Self::MIN_POINTS {
            return None;
        }
        Some(Self::from_fits(
            CurveFamily::ALL
                .iter()
                .map(|&f| fit_family(f, points))
                .collect(),
        ))
    }

    /// Weight fitted families into an ensemble.
    pub(crate) fn from_fits(fits: Vec<FittedCurve>) -> Self {
        // Inverse-MSE weights with a floor to avoid division blow-ups.
        let raw: Vec<f64> = fits.iter().map(|f| 1.0 / (f.mse + 1e-9)).collect();
        let total: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total).collect();
        let residual_rmse = fits
            .iter()
            .zip(&weights)
            .map(|(f, w)| w * f.mse)
            .sum::<f64>()
            .sqrt();
        EnsemblePredictor {
            fits,
            weights,
            residual_rmse,
        }
    }

    /// Predict accuracy at `iteration`.
    pub fn predict(&self, iteration: f64) -> Prediction {
        let mean: f64 = self
            .fits
            .iter()
            .zip(&self.weights)
            .map(|(f, w)| w * f.predict(iteration))
            .sum();
        let var: f64 = self
            .fits
            .iter()
            .zip(&self.weights)
            .map(|(f, w)| {
                let d = f.predict(iteration) - mean;
                w * d * d
            })
            .sum();
        let spread = var.sqrt();
        // Confidence decays with ensemble disagreement and residual
        // training error. The 20× factors map "1% spread" to a ~0.8
        // confidence hit, calibrated by the tests below.
        let confidence = (1.0 / (1.0 + 20.0 * spread + 20.0 * self.residual_rmse)).clamp(0.0, 1.0);
        Prediction {
            accuracy: mean.clamp(0.0, 1.0),
            confidence,
        }
    }

    /// Weighted asymptotic ("maximum achievable") accuracy.
    pub fn predicted_max(&self) -> f64 {
        self.fits
            .iter()
            .zip(&self.weights)
            .map(|(f, w)| w * f.family.asymptote(f.params).clamp(0.0, 1.0))
            .sum()
    }

    /// The individual fits (for inspection / testing).
    pub fn fits(&self) -> &[FittedCurve] {
        &self.fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve_points(a: f64, k: f64, n: usize) -> Vec<(f64, f64)> {
        (1..=n)
            .map(|i| (i as f64, a * (1.0 - (-k * i as f64).exp())))
            .collect()
    }

    #[test]
    fn too_few_points_returns_none() {
        assert!(EnsemblePredictor::fit(&[(1.0, 0.1), (2.0, 0.2)]).is_none());
    }

    #[test]
    fn clean_curve_predicts_with_high_confidence() {
        // Observe 40% of training, extrapolate to the end.
        let pts = curve_points(0.85, 0.01, 200);
        let e = EnsemblePredictor::fit(&pts[..80]).unwrap();
        let p = e.predict(500.0);
        let truth = 0.85 * (1.0 - (-0.01f64 * 500.0).exp());
        assert!(
            (p.accuracy - truth).abs() < 0.05,
            "pred {} truth {truth}",
            p.accuracy
        );
        assert!(p.confidence > 0.5, "confidence {}", p.confidence);
    }

    #[test]
    fn prediction_accuracy_matches_paper_90_percent() {
        // §3.1: the method "achieves around 90% accuracy". Measure
        // relative error over a spread of synthetic jobs observing the
        // first third of training.
        let mut errs = Vec::new();
        for (idx, &(a, k, n)) in [
            (0.9, 0.02, 300),
            (0.8, 0.005, 600),
            (0.7, 0.05, 150),
            (0.95, 0.01, 400),
            (0.6, 0.03, 200),
        ]
        .iter()
        .enumerate()
        {
            let _ = idx;
            let pts = curve_points(a, k, n);
            let cut = n / 3;
            let e = EnsemblePredictor::fit(&pts[..cut]).unwrap();
            let p = e.predict(n as f64);
            let truth = pts[n - 1].1;
            errs.push((p.accuracy - truth).abs() / truth);
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.10, "mean rel err {mean_err} ({errs:?})");
    }

    #[test]
    fn noisy_curve_lowers_confidence() {
        // Same curve, but with deterministic "noise" (alternating
        // perturbation) — confidence should drop vs the clean fit.
        let clean = curve_points(0.8, 0.02, 60);
        let noisy: Vec<(f64, f64)> = clean
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                (
                    x,
                    (y + if i % 2 == 0 { 0.05 } else { -0.05 }).clamp(0.0, 1.0),
                )
            })
            .collect();
        let ce = EnsemblePredictor::fit(&clean).unwrap().predict(200.0);
        let ne = EnsemblePredictor::fit(&noisy).unwrap().predict(200.0);
        assert!(ne.confidence < ce.confidence);
    }

    #[test]
    fn predicted_max_is_plausible() {
        let pts = curve_points(0.9, 0.03, 150);
        let e = EnsemblePredictor::fit(&pts).unwrap();
        let m = e.predicted_max();
        assert!((0.8..=1.0).contains(&m), "max {m}");
    }

    #[test]
    fn weights_sum_to_one_and_prefer_better_fits() {
        let pts = curve_points(0.85, 0.02, 100);
        let e = EnsemblePredictor::fit(&pts).unwrap();
        let wsum: f64 = e.weights.iter().sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        // The lowest-MSE family carries the largest weight.
        let best_fit = e
            .fits
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.mse.partial_cmp(&b.1.mse).unwrap())
            .unwrap()
            .0;
        let best_weight = e
            .weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best_fit, best_weight);
    }
}
