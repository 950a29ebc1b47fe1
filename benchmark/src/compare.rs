//! `workloads --compare A B`: judges two sets of result records by the
//! benchmark's own bounds.
//!
//! A set is a `results.jsonl` file — one record per run, any number of
//! runs per workload. For every workload × end-to-end metric the medians of
//! the two sets are compared against the metric's bound, and a metric whose
//! run-to-run spread (interquartile distance over the median, per set) is
//! wider than its bound is reported as **unresolved** rather than as
//! unchanged. Separately, every `(workload, seed)` pair present in both
//! sets must agree bit for bit on the `exact` section — virtual nanoseconds
//! and every protocol counter of the first pass — unless the workload is
//! the lock-based one, whose grant order follows host arrival order.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end metric name.
    pub metric: &'static str,
    /// Unit of the medians.
    pub unit: &'static str,
    /// Runs in each set.
    pub runs: (usize, usize),
    /// Median of each set.
    pub medians: (f64, f64),
    /// By how much B is *worse* than A, as a share of A's median (negative
    /// when B is better).
    pub worse_by: f64,
    /// Spread of each set; `None` for a single run.
    pub spreads: (Option<f64>, Option<f64>),
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// A disagreement in the `exact` section of two runs of one
/// `(workload, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Workload name.
    pub workload: String,
    /// The seed both runs used.
    pub seed: u64,
    /// The counter that differs.
    pub key: String,
    /// Its value in each set (`None` if absent).
    pub values: (Option<f64>, Option<f64>),
}

/// Everything `--compare` prints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// One row per workload × metric that both sets cover.
    pub rows: Vec<Row>,
    /// `(workload, seed)` pairs whose exact sections were compared.
    pub exact_pairs: usize,
    /// Exact-section disagreements.
    pub mismatches: Vec<Mismatch>,
    /// Records left out (quick or traced runs) and workloads only one set
    /// covers.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether anything regressed or any exact counter differs.
    pub fn failed(&self) -> bool {
        !self.mismatches.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }
}

/// Parses a `results.jsonl` file: one JSON record per non-empty line.
pub fn parse_records(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The comparable records of a set: untraced, full-length runs.
fn comparable<'a>(records: &'a [Json], label: &str, notes: &mut Vec<String>) -> Vec<&'a Json> {
    let is = |r: &Json, key: &str| match r.get(key) {
        Some(Json::Bool(b)) => *b,
        Some(Json::Num(n)) => *n != 0.0,
        _ => false,
    };
    let kept: Vec<&Json> = records.iter().filter(|r| !is(r, "quick") && !is(r, "trace")).collect();
    if kept.len() < records.len() {
        notes.push(format!(
            "set {label}: {} quick or traced record(s) left out (not comparable)",
            records.len() - kept.len()
        ));
    }
    kept
}

fn readings(records: &[&Json], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The table row for one workload × metric, judged from the two sets'
/// readings.
fn row(workload: &'static str, m: &EndToEnd, a: &[f64], b: &[f64]) -> Row {
    let medians = (median(a), median(b));
    let spreads = (iqr_share(a), iqr_share(b));
    let gap = (medians.1 - medians.0) / medians.0.abs();
    let worse_by = if m.better == "higher" { -gap } else { gap };
    let too_wide = |s: Option<f64>| s.is_some_and(|s| s > m.bound);
    let verdict = if too_wide(spreads.0) || too_wide(spreads.1) {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        workload,
        metric: m.name,
        unit: m.unit,
        runs: (a.len(), b.len()),
        medians,
        worse_by,
        spreads,
        bound: m.bound,
        verdict,
    }
}

/// The `exact` sections of a set's deterministic records, keyed by
/// `(workload, seed)`; the first record of a pair wins.
fn exact_sections<'a>(records: &[&'a Json]) -> BTreeMap<(String, u64), &'a [(String, Json)]> {
    let mut map = BTreeMap::new();
    for r in records {
        if r.get("deterministic").and_then(Json::as_bool) != Some(true) {
            continue;
        }
        let (Some(workload), Some(seed), Some(exact)) = (
            r.get("workload").and_then(Json::as_str),
            r.get("seed").and_then(Json::as_f64),
            r.get("exact").and_then(Json::fields),
        ) else {
            continue;
        };
        map.entry((workload.to_string(), seed as u64)).or_insert(exact);
    }
    map
}

/// Compares set A (the baseline) with set B.
pub fn compare(a: &[Json], b: &[Json]) -> Report {
    let mut report = Report::default();
    let a = comparable(a, "A", &mut report.notes);
    let b = comparable(b, "B", &mut report.notes);
    for w in WORKLOADS {
        let before = report.rows.len();
        for m in &END_TO_END {
            let (va, vb) = (readings(&a, w.name, m.name), readings(&b, w.name, m.name));
            if !va.is_empty() && !vb.is_empty() {
                report.rows.push(row(w.name, m, &va, &vb));
            }
        }
        let has = |set: &[&Json]| {
            set.iter().any(|r| r.get("workload").and_then(Json::as_str) == Some(w.name))
        };
        if report.rows.len() == before && (has(&a) || has(&b)) {
            report.notes.push(format!("{}: only one set has runs, skipped", w.name));
        }
    }
    let (ea, eb) = (exact_sections(&a), exact_sections(&b));
    for (pair, fields_a) in &ea {
        let Some(fields_b) = eb.get(pair) else { continue };
        report.exact_pairs += 1;
        let value = |fields: &[(String, Json)], key: &str| {
            fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_f64())
        };
        let keys_b_only = fields_b.iter().filter(|(k, _)| value(fields_a, k).is_none());
        for (key, _) in fields_a.iter().chain(keys_b_only) {
            let values = (value(fields_a, key), value(fields_b, key));
            if values.0 != values.1 {
                report.mismatches.push(Mismatch {
                    workload: pair.0.clone(),
                    seed: pair.1,
                    key: key.clone(),
                    values,
                });
            }
        }
    }
    report
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = |x: f64| format!("{:+.2}%", x * 100.0);
        let spread = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
        writeln!(
            f,
            "{:<8} {:<8} {:>5} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "runs",
            "median A",
            "median B",
            "B worse",
            "iqr A",
            "iqr B",
            "bound"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:<8} {:>5} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  {}",
                r.workload,
                r.metric,
                format!("{}/{}", r.runs.0, r.runs.1),
                format!("{:.4} {}", r.medians.0, r.unit),
                format!("{:.4} {}", r.medians.1, r.unit),
                pct(r.worse_by),
                spread(r.spreads.0),
                spread(r.spreads.1),
                format!("{:.0}%", r.bound * 100.0),
                r.verdict
            )?;
        }
        writeln!(
            f,
            "exact section (virtual ns and protocol counters of the first pass): {} (workload, \
             seed) pair(s) compared, {} difference(s)",
            self.exact_pairs,
            self.mismatches.len()
        )?;
        for m in &self.mismatches {
            writeln!(
                f,
                "  differs: {} seed {} {}: {:?} vs {:?}",
                m.workload, m.seed, m.key, m.values.0, m.values.1
            )?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::reading;

    fn record(workload: &str, seed: u64, virt: f64, host: f64, faults: u64) -> Json {
        Json::obj()
            .set("workload", workload)
            .set("seed", seed)
            .set("trace", 0u64)
            .set("quick", false)
            .set("deterministic", workload != "locks8")
            .set(
                "end_to_end",
                Json::obj()
                    .set("virt_ms", reading(virt, "sim_ms"))
                    .set("host_ms", reading(host, "ms"))
                    .set("setup_s", reading(0.8, "s")),
            )
            .set("exact", Json::obj().set("virt_ns", 1000u64).set("treadmarks.page_faults", faults))
    }

    fn set(host: impl Fn(u64) -> f64, faults: u64) -> Vec<Json> {
        (0..10).map(|s| record("tmk8", s, 288.43, host(s), faults)).collect()
    }

    fn row<'a>(report: &'a Report, metric: &str) -> &'a Row {
        report.rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn identical_sets_are_ok_and_exact() {
        let a = set(|s| 350.0 + s as f64, 3000);
        let report = compare(&a, &a);
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(report.rows.len(), 3, "one row per end-to-end metric of the one workload");
        assert_eq!((report.exact_pairs, report.mismatches.len()), (10, 0));
        assert!(!report.failed());
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let bound = END_TO_END.iter().find(|m| m.name == "host_ms").unwrap().bound;
        let a = set(|s| 350.0 + s as f64, 3000);
        let b = set(|s| 350.0 * (1.05 + bound) + s as f64, 3000);
        let report = compare(&a, &b);
        assert_eq!(row(&report, "host_ms").verdict, Verdict::Regressed);
        assert_eq!(row(&report, "virt_ms").verdict, Verdict::Ok);
        assert!(report.failed());
        // The other direction is an improvement, not a regression.
        assert_eq!(row(&compare(&b, &a), "host_ms").verdict, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = set(|s| 350.0 + s as f64, 3000);
        let noisy = set(|s| 200.0 + 40.0 * s as f64, 3000); // IQR/median ~ 58%
        let report = compare(&a, &noisy);
        assert_eq!(row(&report, "host_ms").verdict, Verdict::Unresolved);
    }

    #[test]
    fn one_differing_exact_counter_is_reported_per_seed() {
        let a = set(|_| 350.0, 3000);
        let b = set(|_| 350.0, 3001);
        let report = compare(&a, &b);
        assert_eq!(report.mismatches.len(), 10);
        assert_eq!(report.mismatches[0].key, "treadmarks.page_faults");
        assert!(report.failed());
        // The lock-based workload is exempt: its records are not marked
        // deterministic.
        let la = vec![record("locks8", 0, 760.0, 120.0, 5)];
        let lb = vec![record("locks8", 0, 765.0, 121.0, 6)];
        assert_eq!(compare(&la, &lb).exact_pairs, 0);
    }

    #[test]
    fn quick_and_traced_records_are_left_out() {
        let a = set(|_| 350.0, 3000);
        let mut b = a.clone();
        let Json::Obj(mut quick) = record("tmk8", 11, 288.43, 9999.0, 3000) else { unreachable!() };
        quick.iter_mut().find(|(k, _)| k == "quick").unwrap().1 = Json::Bool(true);
        b.push(Json::Obj(quick));
        let report = compare(&a, &b);
        assert_eq!(row(&report, "host_ms").runs, (10, 10));
        assert!(report.notes.iter().any(|n| n.contains("left out")));
    }

    #[test]
    fn records_parse_line_by_line() {
        let text =
            format!("{}\n\n{}\n", record("tmk8", 0, 1.0, 2.0, 3), record("tmk8", 1, 1.0, 2.0, 3));
        assert_eq!(parse_records(&text).unwrap().len(), 2);
        assert!(parse_records("{\"a\":1}\nnot json\n").unwrap_err().starts_with("line 2"));
    }
}
