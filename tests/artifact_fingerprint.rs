//! Golden-file pin of everything the offline build fits.
//!
//! Each cell builds one deployment's artifacts and folds every number they
//! hold into an FNV-1a hash over `f64::to_bits`: the calibration
//! temperatures, the mean score, the oracle score of every history sample,
//! every profile row and bin count, and the trained predictor's score on
//! every history feature vector. A change to the offline build that moves a
//! single bit of any of them fails here. Regenerate deliberately with
//! `BLESS_GOLDEN=1 cargo test --test artifact_fingerprint`.

use schemble::core::artifacts::SchembleArtifacts;
use schemble::core::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use schemble::core::filling::KnnFiller;
use schemble::core::pipeline::ResultAssembler;
use schemble::core::predictor::train_score_predictor;
use schemble::core::profiling::AccuracyProfile;
use schemble::data::TaskKind;
use schemble::models::aggregate::train_stacking_meta;
use schemble::models::{zoo, Aggregator, Ensemble, Label, Sample, SampleGenerator, TaskSpec};
use schemble::nn::DiscrepancyPredictor;
use schemble::sim::rng::stream_rng;
use schemble::tensor::stats::mean;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_artifacts.txt");

/// Where `SchembleArtifacts::build` draws its history from.
const HISTORY_OFFSET: u64 = 1 << 40;

/// FNV-1a over the bit patterns of `values`.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every fitted number of one deployment, in a fixed order.
fn fitted_values(
    ensemble: &Ensemble,
    history: &[Sample],
    scorer: &DiscrepancyScorer,
    profile: &AccuracyProfile,
    predictor: &DiscrepancyPredictor,
    mean_score: f64,
) -> Vec<f64> {
    let mut values: Vec<f64> =
        (0..ensemble.m()).map(|k| scorer.calibration().temperature(k)).collect();
    values.push(mean_score);
    values.extend(history.iter().map(|s| scorer.score(ensemble, s)));
    for b in 0..profile.bins() {
        let bin_centre = (b as f64 + 0.5) / profile.bins() as f64;
        values.extend(profile.utility_vector(bin_centre).iter().copied());
        values.push(profile.bin_count(b) as f64);
    }
    values.extend(history.iter().map(|s| predictor.predict_score(&s.features)));
    values
}

fn build_cell(
    ensemble: &Ensemble,
    generator: &SampleGenerator,
    history_n: usize,
    bins: usize,
    metric: DifficultyMetric,
) -> u64 {
    let art = SchembleArtifacts::build(ensemble, generator, history_n, bins, metric, 11);
    let history = generator.batch(HISTORY_OFFSET, history_n);
    fnv1a(fitted_values(
        ensemble,
        &history,
        &art.scorer,
        &art.profile,
        &art.predictor,
        art.mean_score,
    ))
}

/// The benchmark's eight-model, 100-class weighted average.
fn cifar8() -> Ensemble {
    Ensemble::weighted_average(
        (0..8usize).map(|i| zoo::cifar_model(i % 6, 5 + (i / 6) as u64)).collect(),
        TaskSpec::Classification { num_classes: 100 },
    )
}

/// A text-matching ensemble behind a trained stacking meta-classifier,
/// profiled through the KNN filler, as §VII serves it.
fn stacking_cell() -> u64 {
    let task = TaskKind::TextMatching;
    let base = task.ensemble(1);
    let generator = task.default_generator(1);
    let history = generator.batch(1 << 44, 300);
    let mut rng = stream_rng(1, "fingerprint-stacking");
    let rows: Vec<Vec<f64>> = history
        .iter()
        .map(|s| base.infer_all(s).iter().flat_map(|o| o.as_vec()).collect())
        .collect();
    let labels: Vec<Label> = history.iter().map(|s| s.label).collect();
    let mut ensemble = base.clone();
    ensemble.aggregator =
        Aggregator::Stacking { meta: train_stacking_meta(&rows, &labels, &base.spec, &mut rng) };
    let filler = KnnFiller::fit(&ensemble, &history, 10);
    let scorer = DiscrepancyScorer::fit(&ensemble, &history, DifficultyMetric::Discrepancy);
    let scores = scorer.score_batch(&ensemble, &history);
    let profile = AccuracyProfile::fit_with_assembler(
        &ensemble,
        &history,
        &scores,
        8,
        ensemble.m(),
        &ResultAssembler::KnnFill(filler),
    );
    let predictor = train_score_predictor(&ensemble, &history, &scores, &mut rng);
    fnv1a(fitted_values(&ensemble, &history, &scorer, &profile, &predictor, mean(&scores)))
}

/// A text-matching ensemble that votes instead of averaging.
fn voting_cell() -> u64 {
    let mut ensemble = TaskKind::TextMatching.ensemble(2);
    ensemble.aggregator = Aggregator::Voting;
    let generator = TaskKind::TextMatching.default_generator(2);
    build_cell(&ensemble, &generator, 400, 8, DifficultyMetric::Discrepancy)
}

fn task_cell(task: TaskKind, history_n: usize, metric: DifficultyMetric) -> u64 {
    build_cell(&task.ensemble(3), &task.default_generator(3), history_n, 10, metric)
}

#[test]
fn offline_artifacts_match_the_checked_in_fingerprints() {
    let c8 = cifar8();
    let c8_generator =
        SampleGenerator::new(c8.spec, TaskKind::TextMatching.default_difficulty(), 9);
    let cells = [
        ("text_matching", task_cell(TaskKind::TextMatching, 600, DifficultyMetric::Discrepancy)),
        (
            "c8_weighted_average",
            build_cell(&c8, &c8_generator, 250, 10, DifficultyMetric::Discrepancy),
        ),
        (
            "vehicle_counting",
            task_cell(TaskKind::VehicleCounting, 500, DifficultyMetric::Discrepancy),
        ),
        (
            "image_retrieval",
            task_cell(TaskKind::ImageRetrieval, 500, DifficultyMetric::Discrepancy),
        ),
        (
            "ensemble_agreement",
            task_cell(TaskKind::TextMatching, 400, DifficultyMetric::EnsembleAgreement),
        ),
        ("stacking_knn_fill", stacking_cell()),
        ("voting", voting_cell()),
    ];
    let text: String = cells.iter().map(|(name, hash)| format!("{name} {hash:016x}\n")).collect();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden file");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file checked in");
    assert_eq!(
        text, golden,
        "the offline artifacts drifted from the golden fingerprints; if the \
         change is intentional, regenerate with BLESS_GOLDEN=1"
    );
}
