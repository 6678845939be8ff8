//! Figure data containers, qualitative checks and rendering.

use simcore::Series;
use std::fmt::Write as _;

/// A qualitative criterion extracted from the paper, evaluated against the
/// simulated data ("who wins, by roughly what factor, where the crossover
/// falls").
#[derive(Clone, Debug)]
pub struct Check {
    /// Short name.
    pub name: String,
    /// Whether the simulated data satisfies it.
    pub pass: bool,
    /// Human-readable evidence (measured vs expected).
    pub detail: String,
}

impl Check {
    /// Build a check.
    pub fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// Per-repetition outcome attached to a figure by an experiment that runs
/// each repetition under the [`crate::runner`] retry policy (the faulted
/// ping-pong). Healthy experiments leave `runs` empty; fault-injection
/// campaigns record one entry per repetition so the export shows which
/// reps completed, which recovered on a retry seed and which failed — plus
/// the rendezvous retry work each one performed.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// Repetition index.
    pub rep: u32,
    /// Seed the (final) attempt ran with.
    pub seed: u64,
    /// [`crate::runner::RunStatus::label`]: `"ok"`, `"recovered"`,
    /// `"failed"` or `"timeout"`.
    pub status: &'static str,
    /// Error text for failed/recovered runs.
    pub error: Option<String>,
    /// Rendezvous retransmissions across all sends of the rep.
    pub retries: u64,
    /// Control-message bytes re-sent across the wire.
    pub retrans_bytes: u64,
    /// Simulated seconds spent in expired retransmission timeouts.
    pub retry_wait_s: f64,
}

/// Everything an experiment produces for one figure or table.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Identifier matching the paper ("fig4a", "table1", …).
    pub id: &'static str,
    /// Title.
    pub title: String,
    /// X-axis label.
    pub xlabel: &'static str,
    /// Y-axis label.
    pub ylabel: &'static str,
    /// Data series (plain = alone, "(+comm)"/"(+compute)" = together).
    pub series: Vec<Series>,
    /// Free-form notes (paper reference points, substitutions).
    pub notes: Vec<String>,
    /// Automated qualitative checks.
    pub checks: Vec<Check>,
    /// Per-repetition outcomes (empty unless the experiment records its
    /// repetitions; see [`RunOutcome`]).
    pub runs: Vec<RunOutcome>,
}

impl FigureData {
    /// True if every check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// True when at least one recorded repetition failed permanently or
    /// timed out — the figure's bands were computed from the surviving
    /// reps only.
    pub fn is_partial(&self) -> bool {
        self.runs
            .iter()
            .any(|r| r.status == "failed" || r.status == "timeout")
    }

    /// Render as an ASCII report block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "   x: {}   y: {}", self.xlabel, self.ylabel);
        for s in &self.series {
            let _ = writeln!(out, "   series: {}", s.name);
            let _ = writeln!(
                out,
                "   {:>14} {:>14} {:>14} {:>14}",
                self.xlabel, "median", "d1", "d9"
            );
            for p in &s.points {
                let _ = writeln!(
                    out,
                    "   {:>14} {:>14} {:>14} {:>14}",
                    fmt_num(p.x),
                    fmt_num(p.y.median),
                    fmt_num(p.y.d1),
                    fmt_num(p.y.d9)
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "   note: {}", n);
        }
        for r in &self.runs {
            let _ = writeln!(
                out,
                "   run {:>3} seed {:#018x} [{}] retries {} retrans {} B wait {:.1} us{}",
                r.rep,
                r.seed,
                r.status,
                r.retries,
                r.retrans_bytes,
                r.retry_wait_s * 1e6,
                r.error
                    .as_deref()
                    .map(|e| format!(" — {}", e))
                    .unwrap_or_default()
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "   [{}] {}: {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        out
    }

    /// Export all series as CSV (`series,x,median,d1,d9,min,max,n`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,median,d1,d9,min,max,n\n");
        for s in &self.series {
            for p in &s.points {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{}",
                    s.name, p.x, p.y.median, p.y.d1, p.y.d9, p.y.min, p.y.max, p.y.n
                );
            }
        }
        out
    }
}

/// Compact number formatting for mixed-magnitude tables.
pub fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1e9 {
        format!("{:.3}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.3}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.3}k", v / 1e3)
    } else if a >= 0.01 {
        format!("{:.3}", v)
    } else {
        format!("{:.3e}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fig() -> FigureData {
        let mut s = Series::new("latency (alone)");
        s.push(1.0, &[1.5, 1.6, 1.7]);
        s.push(2.0, &[2.5, 2.6, 2.7]);
        FigureData {
            id: "figX",
            title: "sample".into(),
            xlabel: "cores",
            ylabel: "latency (us)",
            series: vec![s],
            notes: vec!["paper: something".into()],
            checks: vec![
                Check::new("grows", true, "2.6 > 1.6"),
                Check::new("bounded", true, "under 10"),
            ],
            runs: Vec::new(),
        }
    }

    #[test]
    fn render_contains_everything() {
        let f = sample_fig();
        let r = f.render();
        assert!(r.contains("figX"));
        assert!(r.contains("latency (alone)"));
        assert!(r.contains("[PASS] grows"));
        assert!(r.contains("note: paper"));
        assert!(f.all_pass());
    }

    #[test]
    fn failing_check_detected() {
        let mut f = sample_fig();
        f.checks.push(Check::new("nope", false, "bad"));
        assert!(!f.all_pass());
        assert!(f.render().contains("[FAIL] nope"));
    }

    #[test]
    fn csv_shape() {
        let f = sample_fig();
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 points
        assert!(lines[0].starts_with("series,x,median"));
        assert_eq!(lines[1].split(',').count(), 8);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(10.5e9), "10.500G");
        assert_eq!(fmt_num(1.234e6), "1.234M");
        assert_eq!(fmt_num(4096.0), "4.096k");
        assert_eq!(fmt_num(1.8), "1.800");
        assert_eq!(fmt_num(0.0001), "1.000e-4");
    }
}
