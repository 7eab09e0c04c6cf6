//! Loading and saving arrival traces as CSV — the plug-in point for *real*
//! recorded traces (the paper's one-day Q&A log would be loaded here).
//!
//! Format: one header line, then `arrival_s[,deadline_s]` rows sorted by
//! arrival. The deadline column is optional. Note that
//! [`crate::Workload::generate`] always assigns deadlines from its
//! [`crate::DeadlinePolicy`]; recorded deadlines are exposed through
//! [`RecordedTrace::deadlines`] for callers that want to override the
//! generated ones.

use crate::trace::ArrivalTrace;
use schemble_sim::SimTime;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// A trace loaded from (or destined for) a CSV file.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    arrivals: Vec<SimTime>,
    /// Absolute deadlines, when the file carried them.
    deadlines: Option<Vec<SimTime>>,
}

/// A malformed trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Parse/validation failure with a line number (1-based, incl. header).
    Parse {
        /// Line where the problem was found.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// The latest instant a trace file may carry: half the range of microsecond
/// `u64` time, so the sums the pipelines form on top of an arrival (deadline
/// offsets, predictor latency, backoff) cannot overflow.
const MAX_SECS: f64 = (u64::MAX / 2) as f64 / 1e6;

/// Parses one seconds field, rejecting what [`SimTime`] cannot hold:
/// negatives, NaN, infinities and anything past [`MAX_SECS`].
fn parse_secs(field: &str, what: &str, line: usize) -> Result<f64, TraceError> {
    let err = |problem: &str| TraceError::Parse { line, message: format!("{problem} {what}") };
    let secs: f64 = field.trim().parse().map_err(|_| err("bad"))?;
    if secs < 0.0 {
        return Err(err("negative"));
    }
    // A NaN compares false with everything, so it needs its own test.
    if secs.is_nan() || secs > MAX_SECS {
        return Err(err("non-finite or too large"));
    }
    Ok(secs)
}

impl RecordedTrace {
    /// Wraps arrival instants (must be sorted ascending).
    ///
    /// # Panics
    /// Panics if the arrivals are unsorted — recorded traces are
    /// chronological by definition.
    pub fn new(arrivals: Vec<SimTime>) -> Self {
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "recorded arrivals must be sorted");
        Self { arrivals, deadlines: None }
    }

    /// Wraps arrivals with absolute deadlines.
    pub fn with_deadlines(arrivals: Vec<SimTime>, deadlines: Vec<SimTime>) -> Self {
        assert_eq!(arrivals.len(), deadlines.len(), "column length mismatch");
        let mut t = Self::new(arrivals);
        t.deadlines = Some(deadlines);
        t
    }

    /// Parses the CSV format from any reader.
    pub fn parse(reader: impl BufRead) -> Result<Self, TraceError> {
        let mut arrivals = Vec::new();
        let mut deadlines: Vec<SimTime> = Vec::new();
        let mut has_deadlines = None;
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            let lineno = i + 1;
            if i == 0 {
                // Header; just validate shape.
                let cols = line.split(',').count();
                if !(1..=2).contains(&cols) {
                    return Err(TraceError::Parse {
                        line: lineno,
                        message: format!("expected 1–2 columns, got {cols}"),
                    });
                }
                has_deadlines = Some(cols == 2);
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let field = parts.next().expect("split yields at least one part");
            let arrival = parse_secs(field, "arrival", lineno)?;
            arrivals.push(SimTime::from_secs_f64(arrival));
            if has_deadlines == Some(true) {
                let field = parts.next().ok_or_else(|| TraceError::Parse {
                    line: lineno,
                    message: "missing deadline column".to_string(),
                })?;
                let d = parse_secs(field, "deadline", lineno)?;
                if d < arrival {
                    return Err(TraceError::Parse {
                        line: lineno,
                        message: "deadline before arrival".to_string(),
                    });
                }
                deadlines.push(SimTime::from_secs_f64(d));
            }
        }
        if !arrivals.windows(2).all(|w| w[0] <= w[1]) {
            return Err(TraceError::Parse { line: 0, message: "arrivals not sorted".to_string() });
        }
        Ok(Self {
            arrivals,
            deadlines: if has_deadlines == Some(true) { Some(deadlines) } else { None },
        })
    }

    /// Loads from a file.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path)?;
        Self::parse(io::BufReader::new(file))
    }

    /// Saves to a file in the same format.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        match &self.deadlines {
            Some(ds) => {
                writeln!(w, "arrival_s,deadline_s")?;
                for (a, d) in self.arrivals.iter().zip(ds) {
                    writeln!(w, "{:.6},{:.6}", a.as_secs_f64(), d.as_secs_f64())?;
                }
            }
            None => {
                writeln!(w, "arrival_s")?;
                for a in &self.arrivals {
                    writeln!(w, "{:.6}", a.as_secs_f64())?;
                }
            }
        }
        w.flush()
    }

    /// Recorded absolute deadlines, if the file carried them.
    pub fn deadlines(&self) -> Option<&[SimTime]> {
        self.deadlines.as_deref()
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

impl ArrivalTrace for RecordedTrace {
    fn arrivals(&self, _seed: u64) -> Vec<SimTime> {
        self.arrivals.clone()
    }
    fn duration(&self) -> SimTime {
        self.arrivals.last().copied().unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_arrival_only() {
        let csv = "arrival_s\n0.5\n1.25\n3.0\n";
        let t = RecordedTrace::parse(Cursor::new(csv)).expect("parse");
        assert_eq!(t.len(), 3);
        assert_eq!(t.arrivals(0)[1], SimTime::from_millis(1250));
        assert!(t.deadlines().is_none());
        assert_eq!(t.duration(), SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn parse_with_deadlines() {
        let csv = "arrival_s,deadline_s\n0.5,0.6\n1.0,1.105\n";
        let t = RecordedTrace::parse(Cursor::new(csv)).expect("parse");
        assert_eq!(t.deadlines().expect("deadlines").len(), 2);
    }

    #[test]
    fn rejects_unsorted_and_bad_rows() {
        assert!(RecordedTrace::parse(Cursor::new("arrival_s\n2.0\n1.0\n")).is_err());
        assert!(RecordedTrace::parse(Cursor::new("arrival_s\nnope\n")).is_err());
        assert!(
            RecordedTrace::parse(Cursor::new("arrival_s,deadline_s\n1.0,0.5\n")).is_err(),
            "deadline before arrival must be rejected"
        );
        assert!(RecordedTrace::parse(Cursor::new("a,b,c\n")).is_err());
    }

    #[test]
    fn rejects_numbers_microsecond_time_cannot_hold() {
        // `inf` used to parse to `SimTime(u64::MAX)` and overflow at the
        // first addition; `nan` slipped past both `<` guards.
        for bad in ["inf", "-inf", "nan", "NaN", "1e300", "-1e300"] {
            for csv in [
                format!("arrival_s\n0.5\n{bad}\n"),
                format!("arrival_s,deadline_s\n0.5,0.6\n{bad},2.0\n"),
                format!("arrival_s,deadline_s\n0.5,0.6\n1.0,{bad}\n"),
            ] {
                match RecordedTrace::parse(Cursor::new(&csv)) {
                    Err(TraceError::Parse { line: 3, .. }) => {}
                    other => panic!("{csv:?} gave {other:?}, want a parse error at line 3"),
                }
            }
        }
        // The largest accepted instant still leaves room to add to.
        let t = RecordedTrace::parse(Cursor::new("arrival_s\n9e12\n")).expect("in range");
        assert!(t.arrivals(0)[0].as_micros() <= u64::MAX / 2);
    }

    #[test]
    fn save_load_roundtrip() {
        let t = RecordedTrace::with_deadlines(
            vec![SimTime::from_millis(100), SimTime::from_millis(350)],
            vec![SimTime::from_millis(200), SimTime::from_millis(500)],
        );
        let dir = std::env::temp_dir().join("schemble-trace-io");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trace.csv");
        t.save(&path).expect("save");
        let loaded = RecordedTrace::load(&path).expect("load");
        assert_eq!(t, loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workload_generation_from_recorded_trace() {
        use crate::{DeadlinePolicy, Workload};
        use schemble_models::{DifficultyDist, SampleGenerator, TaskSpec};
        let t = RecordedTrace::new(vec![
            SimTime::from_millis(10),
            SimTime::from_millis(40),
            SimTime::from_millis(45),
        ]);
        let gen = SampleGenerator::new(
            TaskSpec::Classification { num_classes: 2 },
            DifficultyDist::Uniform,
            1,
        );
        let w = Workload::generate(&gen, &t, &DeadlinePolicy::constant_millis(100.0), 9);
        assert_eq!(w.len(), 3);
        assert_eq!(w.queries[2].arrival, SimTime::from_millis(45));
        assert_eq!(w.queries[2].deadline, SimTime::from_millis(145));
    }
}
