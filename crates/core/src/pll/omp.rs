//! The OMP baseline (orthogonal matching pursuit, Pati et al., ACSSC'93).
//!
//! Treats localization as sparse recovery over the linearized loss model:
//! with per-link transmission rates t_l, a path's end-to-end success rate
//! is Π t_l, so y_path = −ln(1 − loss_ratio) = Σ x_l with x_l = −ln t_l.
//! OMP greedily picks the link column most correlated with the residual,
//! re-solves least squares on the support, and stops when the residual is
//! negligible or the iteration cap is reached.

use super::pll_impl::{Diagnosis, ObservedMatrix, SuspectLink};
use super::PllConfig;
use crate::pmc::ProbeMatrix;
use crate::types::{LinkId, PathObservation};

/// OMP-specific knobs.
#[derive(Clone, Copy, Debug)]
pub struct OmpConfig {
    /// Maximum support size (number of blamed links).
    pub max_iterations: usize,
    /// Stop when the residual's infinity norm falls below this.
    pub residual_tolerance: f64,
    /// Minimum recovered loss rate for a support link to be reported.
    pub rate_threshold: f64,
}

impl Default for OmpConfig {
    fn default() -> Self {
        Self {
            max_iterations: 64,
            residual_tolerance: 1e-6,
            rate_threshold: 1e-3,
        }
    }
}

/// Localizes losses with orthogonal matching pursuit.
pub fn localize_omp(
    matrix: &ProbeMatrix,
    observations: &[PathObservation],
    cfg: &PllConfig,
    omp: &OmpConfig,
) -> Diagnosis {
    let om = ObservedMatrix::build(matrix, observations, cfg);
    let m = om.obs.len();
    if m == 0 {
        return Diagnosis::default();
    }

    // y_i = −ln(1 − loss_ratio), with full loss capped for finiteness.
    let y: Vec<f64> = om
        .obs
        .iter()
        .map(|o| -(1.0 - o.loss_ratio().min(1.0 - 1e-9)).ln())
        .collect();
    if y.iter().all(|&v| v < omp.residual_tolerance) {
        return Diagnosis::default();
    }

    let mut residual = y.clone();
    let mut support: Vec<LinkId> = Vec::new();
    let mut x = Vec::new();

    for _ in 0..omp.max_iterations {
        // Most correlated column (normalized by column norm).
        let mut best: Option<(f64, LinkId)> = None;
        for &l in &om.candidate_links {
            if support.contains(&l) {
                continue;
            }
            let paths = om.link_paths.run(l.index());
            if paths.is_empty() {
                continue;
            }
            let dot: f64 = paths.iter().map(|&oi| residual[oi as usize]).sum();
            let corr = dot.abs() / (paths.len() as f64).sqrt();
            let better = match best {
                None => true,
                Some((bc, bl)) => corr > bc || (corr == bc && l < bl),
            };
            if better && corr > 0.0 {
                best = Some((corr, l));
            }
        }
        let Some((_, pick)) = best else { break };
        support.push(pick);

        // Least squares on the support via normal equations.
        x = solve_least_squares(&om, &support, &y);

        // Refresh the residual.
        residual.copy_from_slice(&y);
        for (si, &l) in support.iter().enumerate() {
            for &oi in om.link_paths.run(l.index()) {
                residual[oi as usize] -= x[si];
            }
        }
        let linf = residual.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        if linf < omp.residual_tolerance {
            break;
        }
    }

    let mut suspects: Vec<SuspectLink> = Vec::new();
    for (si, &l) in support.iter().enumerate() {
        let rate = 1.0 - (-x[si]).exp();
        if rate >= omp.rate_threshold {
            suspects.push(SuspectLink {
                link: l,
                estimated_loss_rate: rate.clamp(0.0, 1.0),
                hit_ratio: om.hit_ratio(l),
                explained_paths: om.link_paths.run(l.index()).len() as u32,
                explained_losses: 0,
            });
        }
    }
    Diagnosis {
        suspects,
        unexplained_paths: Vec::new(),
    }
}

/// Solves min ‖A_S x − y‖₂ over the support columns by normal equations
/// with partial-pivot Gaussian elimination (|S| is small).
fn solve_least_squares(om: &ObservedMatrix, support: &[LinkId], y: &[f64]) -> Vec<f64> {
    let k = support.len();
    let mut gram = vec![vec![0.0f64; k]; k];
    let mut rhs = vec![0.0f64; k];

    // Membership bitmaps per support column.
    let m = y.len();
    let mut member = vec![vec![false; m]; k];
    for (si, &l) in support.iter().enumerate() {
        for &oi in om.link_paths.run(l.index()) {
            member[si][oi as usize] = true;
        }
    }
    for i in 0..k {
        rhs[i] = (0..m).filter(|&oi| member[i][oi]).map(|oi| y[oi]).sum();
        for j in i..k {
            let dot = (0..m).filter(|&oi| member[i][oi] && member[j][oi]).count() as f64;
            gram[i][j] = dot;
            gram[j][i] = dot;
        }
        // Tikhonov nudge keeps the system solvable when columns collide.
        gram[i][i] += 1e-9;
    }

    // Gaussian elimination with partial pivoting.
    for col in 0..k {
        let mut piv = col;
        for r in (col + 1)..k {
            if gram[r][col].abs() > gram[piv][col].abs() {
                piv = r;
            }
        }
        gram.swap(col, piv);
        rhs.swap(col, piv);
        let d = gram[col][col];
        if d.abs() < 1e-15 {
            continue;
        }
        for r in (col + 1)..k {
            let f = gram[r][col] / d;
            let (upper, lower) = gram.split_at_mut(r);
            for (rc, pc) in lower[0][col..].iter_mut().zip(&upper[col][col..]) {
                *rc -= f * pc;
            }
            rhs[r] -= f * rhs[col];
        }
    }
    let mut x = vec![0.0f64; k];
    for col in (0..k).rev() {
        let mut acc = rhs[col];
        for c in (col + 1)..k {
            acc -= gram[col][c] * x[c];
        }
        let d = gram[col][col];
        x[col] = if d.abs() < 1e-15 { 0.0 } else { acc / d };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PathId, ProbePath};

    fn matrix() -> ProbeMatrix {
        let paths = vec![
            ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
            ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
            ProbePath::from_links(2, vec![LinkId(2)]),
            ProbePath::from_links(3, vec![LinkId(1)]),
        ];
        ProbeMatrix::from_paths(3, paths)
    }

    #[test]
    fn recovers_single_random_loss() {
        // Link 0 drops 20%: p0 and p1 lose ~20%, others clean.
        let obs = vec![
            PathObservation::new(PathId(0), 1000, 200),
            PathObservation::new(PathId(1), 1000, 200),
            PathObservation::new(PathId(2), 1000, 0),
            PathObservation::new(PathId(3), 1000, 0),
        ];
        let d = localize_omp(
            &matrix(),
            &obs,
            &PllConfig::default(),
            &OmpConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(0)]);
        let r = d.suspects[0].estimated_loss_rate;
        assert!((r - 0.2).abs() < 0.02, "estimated {r}");
    }

    #[test]
    fn clean_observations_blame_nothing() {
        let obs = vec![
            PathObservation::new(PathId(0), 1000, 0),
            PathObservation::new(PathId(1), 1000, 0),
        ];
        let d = localize_omp(
            &matrix(),
            &obs,
            &PllConfig::default(),
            &OmpConfig::default(),
        );
        assert!(d.suspects.is_empty());
    }

    #[test]
    fn two_independent_losses_are_recovered() {
        // Link 1 drops 30%, link 2 drops 10%.
        let obs = vec![
            PathObservation::new(PathId(0), 1000, 300),
            PathObservation::new(PathId(1), 1000, 100),
            PathObservation::new(PathId(2), 1000, 100),
            PathObservation::new(PathId(3), 1000, 300),
        ];
        let d = localize_omp(
            &matrix(),
            &obs,
            &PllConfig::default(),
            &OmpConfig::default(),
        );
        assert_eq!(d.suspect_links(), vec![LinkId(1), LinkId(2)]);
    }
}
