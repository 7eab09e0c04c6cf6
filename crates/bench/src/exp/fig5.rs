//! **Fig. 5** — model preferences are unstable across architectures and
//! seeds; the discrepancy score is not.
//!
//! On the CIFAR100-like six-architecture zoo, computes the correlation
//! matrix between per-model *preference vectors* — `[d(f_k(x_i), E(x_i))]_i`
//! — across architectures, plus the same-architecture/different-seed
//! diagonal, and contrasts it with the discrepancy score's cross-seed
//! correlation. Shape: off-diagonal and diagonal preference correlations are
//! weak; the discrepancy diagonal is clearly stronger.

use super::Scale;
use crate::fmt::{f3, Report};
use crate::row;
use schemble_core::calibration::Calibration;
use schemble_core::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use schemble_models::zoo::{cifar_zoo, CIFAR_ARCHS};
use schemble_models::{DifficultyDist, Ensemble, Output, SampleGenerator};
use schemble_tensor::stats::pearson;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let (zoo_a, zoo_b) = (cifar_zoo(6, 1), cifar_zoo(6, 2));
    let gen = SampleGenerator::new(zoo_a.spec, DifficultyDist::Uniform, 99);
    let samples = gen.batch(0, scale.sized(3000));

    // Preference vector of model k in an ensemble: calibrated distance to
    // the ensemble output per sample. One column per model.
    let preferences = |ens: &Ensemble| -> Vec<Vec<f64>> {
        let cal = Calibration::fit(ens, &samples);
        let distance = |k: usize, outs: &[Output], e: &Output| {
            cal.apply(k, &outs[k]).distance(&cal.apply(k, e))
        };
        let per_sample = samples.iter().map(|s| {
            let outs = ens.infer_all(s);
            let refs: Vec<(usize, &Output)> = outs.iter().enumerate().collect();
            let e = ens.aggregate(&refs);
            (0..ens.m()).map(|k| distance(k, &outs, &e)).collect::<Vec<f64>>()
        });
        let rows: Vec<Vec<f64>> = per_sample.collect();
        (0..ens.m()).map(|k| rows.iter().map(|row| row[k]).collect()).collect()
    };
    let (pref_a, pref_b) = (preferences(&zoo_a), preferences(&zoo_b));
    let discrepancy = |ens: &Ensemble| {
        DiscrepancyScorer::fit(ens, &samples, DifficultyMetric::Discrepancy)
            .score_batch(ens, &samples)
    };
    let (dis_a, dis_b) = (discrepancy(&zoo_a), discrepancy(&zoo_b));

    // Cross-architecture correlations (within seed A), the same-architecture
    // diagonal across training seeds, and the discrepancy column.
    let pref_diag: Vec<f64> = (0..6).map(|i| pearson(&pref_a[i], &pref_b[i])).collect();
    let dis_diag = pearson(&dis_a, &dis_b);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, arch) in CIFAR_ARCHS.iter().enumerate() {
        let cell = |j: usize| if i == j { pref_diag[i] } else { pearson(&pref_a[i], &pref_a[j]) };
        let mut row = row![arch];
        row.extend((0..6).map(|j| f3(cell(j))));
        row.push(f3(pearson(&pref_a[i], &dis_a)));
        rows.push(row);
    }
    let mut dis_row = row!["Dis"];
    dis_row.extend(pref_a.iter().map(|column| f3(pearson(&dis_a, column))));
    dis_row.push(f3(dis_diag));
    rows.push(dis_row);
    out.table(
        "Fig. 5 — preference/discrepancy correlations (diagonal = reseeded twin)",
        &["", "V", "Re18", "Re101", "D", "I", "Rn50", "Dis"],
        &rows,
    );

    // The paper's claim, quantified.
    let mean_pref_diag = pref_diag.iter().sum::<f64>() / 6.0;
    out.line(format!(
        "\n  mean same-arch cross-seed preference correlation: {mean_pref_diag:.3}\n  \
         discrepancy cross-seed correlation:               {dis_diag:.3}\n  \
         (paper: preferences are poorly consistent; the discrepancy score is much stronger)"
    ));
    assert!(dis_diag > mean_pref_diag, "discrepancy must be more seed-stable than preferences");
    out
}
