//! Parametric saturating curve families and their fitting.
//!
//! Each family maps an iteration count to a predicted accuracy and is
//! parameterised by `(a, b, c)` with family-specific meaning. All
//! families saturate: accuracy approaches `a` as iterations grow,
//! matching the diminishing-returns shape of ML training curves.
//! Fitting is deterministic: a coarse grid over parameters followed by
//! rounds of coordinate-wise golden-section-style refinement.

use serde::{Deserialize, Serialize};

/// The curve families in the ensemble (a practical subset of Domhan et
/// al.'s eleven).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CurveFamily {
    /// `a − b·(i+1)^(−c)` — power-law decay toward `a` ("pow3").
    Pow3,
    /// `a·(1 − exp(−c·i))` — exponential saturation.
    ExpSat,
    /// `a·i^c / (b^c + i^c)` — Hill / sigmoidal saturation.
    Hill,
    /// `a − b / ln(i + e)` — logarithmic approach ("log power" kin).
    LogShift,
}

impl CurveFamily {
    /// All families.
    pub const ALL: [CurveFamily; 4] = [
        CurveFamily::Pow3,
        CurveFamily::ExpSat,
        CurveFamily::Hill,
        CurveFamily::LogShift,
    ];

    /// Evaluate the family at iteration `i` with parameters `(a,b,c)`.
    pub fn eval(self, p: [f64; 3], i: f64) -> f64 {
        let i = i.max(0.0);
        let [a, b, c] = p;
        match self {
            CurveFamily::Pow3 => a - b * (i + 1.0).powf(-c),
            CurveFamily::ExpSat => a * (1.0 - (-c * i).exp()),
            CurveFamily::Hill => {
                if i <= 0.0 {
                    0.0
                } else {
                    let ic = i.powf(c);
                    a * ic / (b.powf(c) + ic)
                }
            }
            CurveFamily::LogShift => a - b / (i + std::f64::consts::E).ln(),
        }
    }

    /// Asymptotic value as `i → ∞`.
    pub fn asymptote(self, p: [f64; 3]) -> f64 {
        match self {
            CurveFamily::Pow3 | CurveFamily::Hill | CurveFamily::ExpSat => p[0],
            CurveFamily::LogShift => p[0],
        }
    }
}

/// A family with fitted parameters and its fit quality.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FittedCurve {
    /// Which family.
    pub family: CurveFamily,
    /// Fitted `(a, b, c)`.
    pub params: [f64; 3],
    /// Mean squared error on the training points.
    pub mse: f64,
}

impl FittedCurve {
    /// Predicted accuracy at iteration `i`, clamped to [0, 1].
    pub fn predict(&self, i: f64) -> f64 {
        self.family.eval(self.params, i).clamp(0.0, 1.0)
    }
}

fn mse(family: CurveFamily, p: [f64; 3], pts: &[(f64, f64)]) -> f64 {
    mean_square(pts.iter().map(|&(i, y)| family.eval(p, i) - y), pts.len())
}

/// Mean of the squared residuals, over `n` points (at least one).
fn mean_square(residuals: impl Iterator<Item = f64>, n: usize) -> f64 {
    residuals.map(|e| e * e).sum::<f64>() / n.max(1) as f64
}

/// Solve `y ≈ a·u + b·v` for `(a, b)` by 2×2 normal equations over
/// per-point `(u, v, y)`. Returns `None` when the system is singular.
fn lsq2(uvy: impl Iterator<Item = (f64, f64, f64)>) -> Option<(f64, f64)> {
    let (mut suu, mut suv, mut svv, mut suy, mut svy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (ui, vi, y) in uvy {
        suu += ui * ui;
        suv += ui * vi;
        svv += vi * vi;
        suy += ui * y;
        svy += vi * y;
    }
    let det = suu * svv - suv * suv;
    if det.abs() < 1e-12 {
        return None;
    }
    Some(((svv * suy - suv * svy) / det, (suu * svy - suv * suy) / det))
}

/// Solve `y ≈ a·u` for `a` over per-point `(u, y)`.
fn lsq1(uy: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut suu, mut suy) = (0.0, 0.0);
    for (ui, y) in uy {
        suu += ui * ui;
        suy += ui * y;
    }
    if suu < 1e-12 {
        0.0
    } else {
        suy / suu
    }
}

/// The transcendental term of `family` at iteration `i` for shape `c`:
/// `(i+1)^(−c)` for Pow3, `1 − e^(−c·i)` for ExpSat and `i^c` (0 at
/// `i ≤ 0`) for Hill. LogShift has no shape parameter and no term.
fn shape_term(family: CurveFamily, c: f64, i: f64) -> f64 {
    match family {
        CurveFamily::Pow3 => (i + 1.0).powf(-c),
        CurveFamily::ExpSat => 1.0 - (-c * i).exp(),
        CurveFamily::Hill => {
            if i <= 0.0 {
                0.0
            } else {
                i.powf(c)
            }
        }
        CurveFamily::LogShift => 0.0,
    }
}

/// Scores the probes of one [`fit_family`] call. A probe fixes the
/// nonlinear parameters, solves the linear ones in closed form and
/// returns the fitted curve's MSE. Each probe computes its per-point
/// terms once and both the solve and the MSE read them; the MSE forms
/// every value exactly as [`CurveFamily::eval`] does, so params and
/// MSE are bit-identical to solving through `eval`-style closures and
/// scoring with `eval` itself.
struct Prober<'a> {
    family: CurveFamily,
    pts: &'a [(f64, f64)],
    /// Iterations as `eval` sees them (clamped to ≥ 0).
    xs: Vec<f64>,
    /// Whether every raw iteration equals its clamped one bit for bit,
    /// so the solve (which reads raw iterations) can share the terms.
    shared: bool,
    /// The current probe's terms at `xs`.
    terms: Vec<f64>,
    /// Solve-side terms at the raw iterations, used when `!shared`.
    solve_terms: Vec<f64>,
    /// Hill's `i^c` at `xs`, memoised per distinct `c` (bit pattern)
    /// for the length of the fit: the grid has four distinct `c`, and
    /// every refinement probe of the midpoint `b` keeps the best `c`.
    hill_ic: Vec<(u64, Vec<f64>)>,
}

impl<'a> Prober<'a> {
    fn new(family: CurveFamily, pts: &'a [(f64, f64)]) -> Self {
        let xs: Vec<f64> = pts.iter().map(|&(i, _)| i.max(0.0)).collect();
        let shared = pts
            .iter()
            .zip(&xs)
            .all(|(&(i, _), x)| i.to_bits() == x.to_bits());
        Prober {
            family,
            pts,
            xs,
            shared,
            terms: Vec::with_capacity(pts.len()),
            solve_terms: Vec::new(),
            hill_ic: Vec::new(),
        }
    }

    /// Fill `out` with `family`'s term for shape `c` at each iteration.
    fn fill(family: CurveFamily, c: f64, iters: impl Iterator<Item = f64>, out: &mut Vec<f64>) {
        out.clear();
        out.extend(iters.map(|i| shape_term(family, c, i)));
    }

    /// Fit the linear parameters given the nonlinear ones; returns the
    /// full parameter vector (asymptote clamped to ≤ 1 — accuracy
    /// cannot exceed 100%) and its MSE.
    fn probe(&mut self, nonlin: [f64; 2]) -> ([f64; 3], f64) {
        let family = self.family;
        let pts = self.pts;
        let n = pts.len();
        if family == CurveFamily::LogShift {
            let (a, b) = lsq2(
                pts.iter()
                    .map(|&(i, y)| (1.0, -1.0 / (i + std::f64::consts::E).ln(), y)),
            )
            .unwrap_or((0.5, 0.0));
            let p = [a.min(1.0), b, 0.0];
            return (p, mse(family, p, pts));
        }
        let c = if family == CurveFamily::Hill {
            nonlin[1]
        } else {
            nonlin[0]
        };
        let terms: &[f64] = if family == CurveFamily::Hill {
            let key = c.to_bits();
            let slot = match self.hill_ic.iter().position(|(k, _)| *k == key) {
                Some(slot) => slot,
                None => {
                    let mut ic = Vec::with_capacity(n);
                    Self::fill(family, c, self.xs.iter().copied(), &mut ic);
                    self.hill_ic.push((key, ic));
                    self.hill_ic.len() - 1
                }
            };
            &self.hill_ic[slot].1
        } else {
            Self::fill(family, c, self.xs.iter().copied(), &mut self.terms);
            &self.terms
        };
        let solve: &[f64] = if self.shared {
            terms
        } else {
            Self::fill(family, c, pts.iter().map(|p| p.0), &mut self.solve_terms);
            &self.solve_terms
        };
        match family {
            CurveFamily::Pow3 => {
                let (a, b) = lsq2(pts.iter().zip(solve).map(|(&(_, y), &w)| (1.0, -w, y)))
                    .unwrap_or((0.5, 0.0));
                let p = [a.min(1.0), b, c];
                let e = mean_square(
                    pts.iter()
                        .zip(terms)
                        .map(|(&(_, y), &w)| p[0] - p[1] * w - y),
                    n,
                );
                (p, e)
            }
            CurveFamily::ExpSat => {
                let a = lsq1(pts.iter().zip(solve).map(|(&(_, y), &u)| (u, y)));
                let p = [a.min(1.0), 0.0, c];
                let e = mean_square(pts.iter().zip(terms).map(|(&(_, y), &u)| p[0] * u - y), n);
                (p, e)
            }
            // Hill (LogShift returned above): `b^c` is the same at
            // every point.
            _ => {
                let b = nonlin[0];
                let bc = b.powf(c);
                let a = lsq1(pts.iter().zip(solve).map(|(&(i, y), &ic)| {
                    let u = if i <= 0.0 { 0.0 } else { ic / (bc + ic) };
                    (u, y)
                }));
                let p = [a.min(1.0), b, c];
                // `eval`'s `a * ic / (bc + ic)` is `(a·ic)/den`.
                let e = mean_square(
                    self.xs
                        .iter()
                        .zip(terms)
                        .zip(pts)
                        .map(|((&x, &ic), &(_, y))| {
                            let v = if x <= 0.0 { 0.0 } else { p[0] * ic / (bc + ic) };
                            v - y
                        }),
                    n,
                );
                (p, e)
            }
        }
    }
}

/// Fit one family to observed `(iteration, accuracy)` points.
///
/// Strategy: every family is linear in its scale parameters given its
/// nonlinear shape parameter(s), so we grid-search the shape
/// parameter(s) (log-spaced, relative to the observed iteration span),
/// solve the scale parameters in closed form, then refine the shape
/// multiplicatively. Deterministic.
pub fn fit_family(family: CurveFamily, pts: &[(f64, f64)]) -> FittedCurve {
    assert!(!pts.is_empty(), "cannot fit an empty curve");
    let span = pts.last().map_or(1.0, |p| p.0).max(1.0);

    // Candidate nonlinear parameters per family.
    let log_grid = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
        (0..n)
            .map(|k| lo * (hi / lo).powf(k as f64 / (n - 1).max(1) as f64))
            .collect()
    };
    let candidates: Vec<[f64; 2]> = match family {
        // Pow3 exponent c.
        CurveFamily::Pow3 => log_grid(0.05, 4.0, 16)
            .into_iter()
            .map(|c| [c, 0.0])
            .collect(),
        // ExpSat rate c, scaled to the observation span.
        CurveFamily::ExpSat => log_grid(0.1 / span, 50.0 / span, 24)
            .into_iter()
            .map(|c| [c, 0.0])
            .collect(),
        // Hill midpoint b (relative to span) × exponent c.
        CurveFamily::Hill => {
            let mut out = Vec::new();
            for b in log_grid(0.05 * span, 20.0 * span, 10) {
                for c in [0.6, 1.0, 1.5, 2.5] {
                    out.push([b, c]);
                }
            }
            out
        }
        // LogShift has no nonlinear parameter.
        CurveFamily::LogShift => vec![[0.0, 0.0]],
    };

    let mut prober = Prober::new(family, pts);
    let (mut best, mut best_mse) = prober.probe(candidates[0]);
    for cand in candidates.into_iter().skip(1) {
        let (p, e) = prober.probe(cand);
        if e < best_mse {
            best_mse = e;
            best = p;
        }
    }

    // Multiplicative refinement of the nonlinear parameter(s), with
    // the linear ones re-solved at every probe.
    let nonlin_dims: &[usize] = match family {
        CurveFamily::Pow3 | CurveFamily::ExpSat => &[2],
        CurveFamily::Hill => &[1, 2],
        CurveFamily::LogShift => &[],
    };
    let mut step = 0.4;
    for _ in 0..30 {
        let mut improved = false;
        for &dim in nonlin_dims {
            for mult in [1.0 + step, 1.0 / (1.0 + step)] {
                let probe = (best[dim] * mult).clamp(1e-9, 1e9);
                let cand_nl = match family {
                    CurveFamily::Hill => {
                        if dim == 1 {
                            [probe, best[2]]
                        } else {
                            [best[1], probe]
                        }
                    }
                    _ => [probe, 0.0],
                };
                let (p, e) = prober.probe(cand_nl);
                if e < best_mse {
                    best_mse = e;
                    best = p;
                    improved = true;
                }
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-4 {
                break;
            }
        }
    }

    FittedCurve {
        family,
        params: best,
        mse: best_mse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expsat_points(a: f64, k: f64, n: usize) -> Vec<(f64, f64)> {
        (1..=n)
            .map(|i| (i as f64, a * (1.0 - (-k * i as f64).exp())))
            .collect()
    }

    #[test]
    fn expsat_recovers_its_own_curve() {
        let pts = expsat_points(0.9, 0.02, 60);
        let fit = fit_family(CurveFamily::ExpSat, &pts);
        assert!(fit.mse < 1e-5, "mse {}", fit.mse);
        // Extrapolation near truth at i = 400.
        let truth = 0.9 * (1.0 - (-0.02f64 * 400.0).exp());
        assert!((fit.predict(400.0) - truth).abs() < 0.05);
    }

    #[test]
    fn every_family_fits_a_saturating_curve_reasonably() {
        let pts = expsat_points(0.8, 0.01, 100);
        for f in CurveFamily::ALL {
            let fit = fit_family(f, &pts);
            assert!(fit.mse < 0.01, "{f:?} mse {}", fit.mse);
            // Predictions stay in [0,1].
            for i in [0.0, 1.0, 50.0, 1e4] {
                let p = fit.predict(i);
                assert!((0.0..=1.0).contains(&p), "{f:?} at {i}: {p}");
            }
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let pts = expsat_points(0.7, 0.05, 30);
        let a = fit_family(CurveFamily::Hill, &pts);
        let b = fit_family(CurveFamily::Hill, &pts);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn asymptote_is_param_a() {
        for f in CurveFamily::ALL {
            assert_eq!(f.asymptote([0.83, 1.0, 1.0]), 0.83);
        }
    }

    #[test]
    #[should_panic(expected = "empty curve")]
    fn empty_fit_panics() {
        fit_family(CurveFamily::Pow3, &[]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Fitting any saturating exponential prefix keeps MSE low,
        /// stays deterministic, and predicts within [0, 1].
        #[test]
        fn fits_are_sane_on_exponential_data(
            a in 0.4f64..0.99,
            k in 0.003f64..0.2,
            n in 10usize..120,
        ) {
            let pts: Vec<(f64, f64)> = (1..=n)
                .map(|i| (i as f64, a * (1.0 - (-k * i as f64).exp())))
                .collect();
            for fam in CurveFamily::ALL {
                let f1 = fit_family(fam, &pts);
                let f2 = fit_family(fam, &pts);
                prop_assert_eq!(f1.params, f2.params);
                prop_assert!(f1.mse.is_finite() && f1.mse >= 0.0);
                for i in [0.0, 1.0, n as f64, 10.0 * n as f64] {
                    let p = f1.predict(i);
                    prop_assert!((0.0..=1.0).contains(&p), "{fam:?}@{i}: {p}");
                }
            }
            // The matching family must fit nearly perfectly.
            let exp = fit_family(CurveFamily::ExpSat, &pts);
            prop_assert!(exp.mse < 1e-6, "ExpSat mse {}", exp.mse);
        }
    }

    #[test]
    fn hill_recovers_its_own_curve() {
        let pts: Vec<(f64, f64)> = (1..=80)
            .map(|i| {
                let i = i as f64;
                (i, 0.85 * i.powf(1.3) / (40.0f64.powf(1.3) + i.powf(1.3)))
            })
            .collect();
        let fit = fit_family(CurveFamily::Hill, &pts);
        assert!(fit.mse < 1e-6, "mse {}", fit.mse);
    }

    #[test]
    fn pow3_recovers_its_own_curve() {
        let pts: Vec<(f64, f64)> = (1..=80)
            .map(|i| {
                let i = i as f64;
                (i, 0.9 - 0.6 * (i + 1.0).powf(-0.5))
            })
            .collect();
        let fit = fit_family(CurveFamily::Pow3, &pts);
        assert!(fit.mse < 1e-6, "mse {}", fit.mse);
        // Asymptote close to the true 0.9.
        assert!((fit.params[0] - 0.9).abs() < 0.05, "{:?}", fit.params);
    }

    #[test]
    fn eval_handles_edge_iterations() {
        for f in CurveFamily::ALL {
            let v0 = f.eval([0.9, 0.5, 0.5], 0.0);
            assert!(v0.is_finite());
            let vbig = f.eval([0.9, 0.5, 0.5], 1e9);
            assert!(vbig.is_finite());
            // Saturation: the huge-iteration value is near the asymptote.
            assert!((vbig - f.asymptote([0.9, 0.5, 0.5])).abs() < 0.05, "{f:?}");
        }
    }
}

/// The memoised [`fit_family`] against the formulation it replaced:
/// the linear solve through per-point closures and the MSE through
/// [`CurveFamily::eval`], each recomputing every term. Params, MSE and
/// ensemble predictions must match bit for bit.
#[cfg(test)]
mod bit_identity {
    use super::*;
    use crate::EnsemblePredictor;
    use proptest::prelude::*;

    fn lsq2(
        pts: &[(f64, f64)],
        u: impl Fn(f64) -> f64,
        v: impl Fn(f64) -> f64,
    ) -> Option<(f64, f64)> {
        let (mut suu, mut suv, mut svv, mut suy, mut svy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for &(i, y) in pts {
            let (ui, vi) = (u(i), v(i));
            suu += ui * ui;
            suv += ui * vi;
            svv += vi * vi;
            suy += ui * y;
            svy += vi * y;
        }
        let det = suu * svv - suv * suv;
        if det.abs() < 1e-12 {
            return None;
        }
        Some(((svv * suy - suv * svy) / det, (suu * svy - suv * suy) / det))
    }

    fn lsq1(pts: &[(f64, f64)], u: impl Fn(f64) -> f64) -> f64 {
        let (mut suu, mut suy) = (0.0, 0.0);
        for &(i, y) in pts {
            let ui = u(i);
            suu += ui * ui;
            suy += ui * y;
        }
        if suu < 1e-12 {
            0.0
        } else {
            suy / suu
        }
    }

    fn fit_linear(family: CurveFamily, nonlin: [f64; 2], pts: &[(f64, f64)]) -> [f64; 3] {
        match family {
            CurveFamily::Pow3 => {
                let c = nonlin[0];
                let (a, b) = lsq2(pts, |_| 1.0, |i| -((i + 1.0).powf(-c))).unwrap_or((0.5, 0.0));
                [a.min(1.0), b, c]
            }
            CurveFamily::ExpSat => {
                let c = nonlin[0];
                let a = lsq1(pts, |i| 1.0 - (-c * i).exp());
                [a.min(1.0), 0.0, c]
            }
            CurveFamily::Hill => {
                let (b, c) = (nonlin[0], nonlin[1]);
                let a = lsq1(pts, |i| {
                    if i <= 0.0 {
                        0.0
                    } else {
                        let ic = i.powf(c);
                        ic / (b.powf(c) + ic)
                    }
                });
                [a.min(1.0), b, c]
            }
            CurveFamily::LogShift => {
                let (a, b) = lsq2(pts, |_| 1.0, |i| -1.0 / (i + std::f64::consts::E).ln())
                    .unwrap_or((0.5, 0.0));
                [a.min(1.0), b, 0.0]
            }
        }
    }

    fn mse(family: CurveFamily, p: [f64; 3], pts: &[(f64, f64)]) -> f64 {
        let n = pts.len().max(1) as f64;
        pts.iter()
            .map(|&(i, y)| {
                let e = family.eval(p, i) - y;
                e * e
            })
            .sum::<f64>()
            / n
    }

    /// Today's grid and refinement, scoring every probe the old way.
    fn legacy_fit_family(family: CurveFamily, pts: &[(f64, f64)]) -> FittedCurve {
        let span = pts.last().map_or(1.0, |p| p.0).max(1.0);
        let log_grid = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|k| lo * (hi / lo).powf(k as f64 / (n - 1).max(1) as f64))
                .collect()
        };
        let candidates: Vec<[f64; 2]> = match family {
            CurveFamily::Pow3 => log_grid(0.05, 4.0, 16)
                .into_iter()
                .map(|c| [c, 0.0])
                .collect(),
            CurveFamily::ExpSat => log_grid(0.1 / span, 50.0 / span, 24)
                .into_iter()
                .map(|c| [c, 0.0])
                .collect(),
            CurveFamily::Hill => log_grid(0.05 * span, 20.0 * span, 10)
                .into_iter()
                .flat_map(|b| [0.6, 1.0, 1.5, 2.5].map(|c| [b, c]))
                .collect(),
            CurveFamily::LogShift => vec![[0.0, 0.0]],
        };
        let mut best = fit_linear(family, candidates[0], pts);
        let mut best_mse = mse(family, best, pts);
        for cand in candidates.into_iter().skip(1) {
            let p = fit_linear(family, cand, pts);
            let e = mse(family, p, pts);
            if e < best_mse {
                best_mse = e;
                best = p;
            }
        }
        let nonlin_dims: &[usize] = match family {
            CurveFamily::Pow3 | CurveFamily::ExpSat => &[2],
            CurveFamily::Hill => &[1, 2],
            CurveFamily::LogShift => &[],
        };
        let mut step = 0.4;
        for _ in 0..30 {
            let mut improved = false;
            for &dim in nonlin_dims {
                for mult in [1.0 + step, 1.0 / (1.0 + step)] {
                    let probe = (best[dim] * mult).clamp(1e-9, 1e9);
                    let cand_nl = match family {
                        CurveFamily::Hill if dim == 1 => [probe, best[2]],
                        CurveFamily::Hill => [best[1], probe],
                        _ => [probe, 0.0],
                    };
                    let p = fit_linear(family, cand_nl, pts);
                    let e = mse(family, p, pts);
                    if e < best_mse {
                        best_mse = e;
                        best = p;
                        improved = true;
                    }
                }
            }
            if !improved {
                step *= 0.5;
                if step < 1e-4 {
                    break;
                }
            }
        }
        FittedCurve {
            family,
            params: best,
            mse: best_mse,
        }
    }

    fn bits(f: &FittedCurve) -> ([u64; 3], u64) {
        (f.params.map(f64::to_bits), f.mse.to_bits())
    }

    /// Every family's fit and the ensemble built from them agree bit
    /// for bit with the old formulation on `pts`.
    fn check(pts: &[(f64, f64)]) {
        let mut new_fits = Vec::new();
        let mut old_fits = Vec::new();
        for fam in CurveFamily::ALL {
            let (new, old) = (fit_family(fam, pts), legacy_fit_family(fam, pts));
            prop_assert_eq!(bits(&new), bits(&old), "{:?}: {:?} vs {:?}", fam, new, old);
            new_fits.push(new);
            old_fits.push(old);
        }
        let (new, old) = (
            EnsemblePredictor::from_fits(new_fits),
            EnsemblePredictor::from_fits(old_fits),
        );
        let last = pts.last().map_or(1.0, |p| p.0);
        for at in [-1.0, 0.0, 1.0, last, 2.0 * last, 10.0 * last, 1e6] {
            let (a, b) = (new.predict(at), old.predict(at));
            prop_assert_eq!(
                a.accuracy.to_bits(),
                b.accuracy.to_bits(),
                "accuracy at {}",
                at
            );
            prop_assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "confidence at {}",
                at
            );
        }
    }

    /// A saturating curve of family `shape` sampled every `stride`
    /// iterations from `start`, plus `noise` scaled per point.
    fn curve(
        shape: u8,
        (a, k): (f64, f64),
        start: i64,
        stride: u32,
        noise: &[f64],
    ) -> Vec<(f64, f64)> {
        noise
            .iter()
            .enumerate()
            .map(|(j, e)| {
                let i = (start + j as i64 * i64::from(stride)) as f64;
                let x = i.max(0.0);
                let y = match shape {
                    0 => a * (1.0 - (-k * x).exp()),
                    1 => a - 0.6 * (x + 1.0).powf(-k * 20.0),
                    _ => a * x.powf(1.3) / ((0.5 / k).powf(1.3) + x.powf(1.3)),
                };
                (i, (y + e).clamp(0.0, 1.0))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn memoised_fits_are_bit_identical(
            shape in 0u8..3,
            a in 0.3f64..0.99,
            k in 0.001f64..0.2,
            start in 1u32..4,
            stride in 1u32..=50,
            noise in proptest::collection::vec(-0.05f64..0.05, 5..=120),
            noisy in any::<bool>(),
        ) {
            let noise: Vec<f64> = noise.iter().map(|e| if noisy { *e } else { 0.0 }).collect();
            check(&curve(shape, (a, k), i64::from(start), stride, &noise));
        }

        /// Points at `i = 0` (Hill's branch) and at `i < 0`, where
        /// `eval` clamps but the solve does not.
        #[test]
        fn memoised_fits_are_bit_identical_at_and_below_zero(
            shape in 0u8..3,
            a in 0.3f64..0.99,
            k in 0.001f64..0.2,
            below in 0u32..=6,
            stride in 1u32..=3,
            noise in proptest::collection::vec(-0.05f64..0.05, 5..=40),
        ) {
            check(&curve(shape, (a, k), -i64::from(below), stride, &noise));
        }
    }
}
