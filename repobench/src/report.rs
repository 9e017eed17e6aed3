//! Metric records, percentiles under the ten-beyond rule, and the
//! result line the benchmark ends with.

use serde_json::{json, Value};

/// A percentile is reported only when at least this many samples lie
/// beyond it; a tail resting on fewer is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// One named measurement with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value rests on (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name: name.to_string(), unit, value, samples }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output matched its reference.
    pub correct: bool,
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; filled only by a traced run.
    pub layers: Vec<Metric>,
    /// Lines explaining the run (ledger, failures), printed before the
    /// result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Correct, successful operations per second over the fixed list.
    pub fn ok_per_s(&self) -> f64 {
        self.end_to_end.iter().find(|m| m.name == "ok_per_s").map_or(0.0, |m| m.value)
    }
}

/// Nearest-rank percentile `q` of an ascending sample, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Fewest samples a group may hold: enough for ten beyond its 90th
/// percentile.
const MIN_GROUP: usize = 100;

/// Percentile `q` of a sample in time order, computed over consecutive
/// groups of at least [`MIN_GROUP`] samples (more when `q` needs them
/// for [`MIN_BEYOND`]) and averaged over the groups. A shared machine
/// alternates between fast and slow phases lasting seconds; the median
/// of the whole sample then jumps between the two modes as the slow
/// share crosses one half, while the mean of short-group percentiles
/// moves in proportion to it. `None` when not even one group fits.
pub fn grouped_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let fewest = (1..).find(|&n: &usize| n - (q * n as f64).ceil() as usize >= MIN_BEYOND)?;
    let groups = samples.len() / fewest.max(MIN_GROUP);
    if groups == 0 {
        return None;
    }
    let size = samples.len() / groups;
    let mut sum = 0.0;
    for g in 0..groups {
        let end = if g + 1 == groups { samples.len() } else { (g + 1) * size };
        let mut group = samples[g * size..end].to_vec();
        group.sort_by(f64::total_cmp);
        sum += percentile(&group, q)?;
    }
    Some(sum / groups as f64)
}

/// Push `<prefix>_<label>_us` for each `(q, label)` percentile the
/// sample (in time order) supports.
pub fn push_percentiles(
    out: &mut Vec<Metric>,
    prefix: &str,
    samples_us: &[f64],
    qs: &[(f64, &str)],
) {
    for &(q, label) in qs {
        if let Some(value) = grouped_percentile(samples_us, q) {
            out.push(Metric::new(&format!("{prefix}_{label}_us"), "us", value, samples_us.len()));
        }
    }
}

/// A report line for the p99 of `samples_us`, which no workload's
/// end-to-end metrics include: on serve-explain it rests on scheduler
/// preemption behind searches and is too unsteady to gate on.
pub fn p99_note(name: &str, samples_us: &[f64]) -> String {
    match grouped_percentile(samples_us, 0.99) {
        Some(v) => format!("{name}_p99_us {v} us (samples {})", samples_us.len()),
        None => format!(
            "{name}_p99_us not reported: fewer than {MIN_BEYOND} of {} samples beyond it",
            samples_us.len()
        ),
    }
}

/// Print the human-readable report and the final JSON result line.
pub fn emit(outcome: &Outcome, traced: bool) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics = if traced { &outcome.layers } else { &outcome.end_to_end };
    for m in metrics {
        println!("metric {} = {} {} (samples {})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    let mut map = std::collections::BTreeMap::new();
    for m in metrics {
        map.insert(m.name.clone(), json!({"value": m.value, "unit": m.unit}));
    }
    let line = json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(map),
    });
    println!("{}", serde_json::to_string(&line).expect("result serializes"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_beyond() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.9), Some(90.0));
        assert_eq!(percentile(&sample, 0.5), Some(50.0));
        assert_eq!(percentile(&sample, 0.99), None);
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn grouped_percentile_averages_groups() {
        // Two phases: 150 fast samples then 150 slow ones, in three
        // groups of 100.
        let sample: Vec<f64> = (0..300).map(|i| if i < 150 { 1.0 } else { 3.0 }).collect();
        let p50 = grouped_percentile(&sample, 0.5).expect("three groups");
        assert!((p50 - 5.0 / 3.0).abs() < 1e-12, "{p50}");
        assert_eq!(grouped_percentile(&sample[..99], 0.9), None);
        assert_eq!(grouped_percentile(&sample, 0.99), None);
        assert!(grouped_percentile(&sample[..100], 0.9).is_some());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
