//! `compare A.json B.json`: one row per workload × metric, both values, the
//! ratio with its base, the bound, and a verdict.
//!
//! A regression is a median worse than the base's by more than the metric's
//! bound. Where either side's own trials are spread wider than the bound the
//! pair cannot tell, and the row says `unresolved`, not `ok`. Per-layer
//! metrics have no bound, so their rows carry no verdict.

use serde::Value;

use crate::schema::{self, Better, MetricDef};

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both sides steady enough to say so.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// A side's trials spread past the bound (or a value is missing).
    Unresolved,
    /// No bound: a per-layer metric.
    Unbounded,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// One workload × metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub def: &'static MetricDef,
    /// Base value (file A).
    pub a: f64,
    /// Compared value (file B).
    pub b: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Every row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Rows in contract order, end-to-end before per-layer.
    pub rows: Vec<Row>,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// `(value, trials)` of one metric of one workload in one pass of a file.
fn lookup(doc: &Value, pass: &str, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = field(
        field(field(field(doc, pass)?, workload)?, "metrics")?,
        metric,
    )?;
    let trials = field(m, "trials")
        .and_then(Value::as_seq)
        .map(|s| s.iter().filter_map(number).collect())
        .unwrap_or_default();
    Some((number(field(m, "value")?)?, trials))
}

/// Range of a side's trials over their middle: with three trials the
/// quartiles are not defined, so the full range stands in for the spread.
fn trial_spread(trials: &[f64]) -> f64 {
    if trials.len() < 2 {
        return 0.0;
    }
    let (lo, hi) = trials
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(l, h), t| (l.min(*t), h.max(*t)));
    let mid = crate::stats::median(trials);
    if mid > 0.0 {
        (hi - lo) / mid
    } else {
        f64::INFINITY
    }
}

/// The verdict for one bounded metric.
pub fn judge(def: &MetricDef, a: (f64, &[f64]), b: (f64, &[f64])) -> Verdict {
    let Some(bound) = def.bound else {
        return Verdict::Unbounded;
    };
    if !(a.0 > 0.0 && b.0 > 0.0) {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => (b.0 - a.0) / a.0,
        Better::Higher => (a.0 - b.0) / a.0,
    };
    if trial_spread(a.1) > bound || trial_spread(b.1) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares two result files (the JSON `run` writes).
///
/// # Errors
///
/// Returns a parse failure, or a file that is not a result file.
pub fn compare(a_text: &str, b_text: &str) -> Result<Report, String> {
    let parse = |text: &str, which: &str| -> Result<Value, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("{which}: {e}"))?;
        match field(&doc, "schema").and_then(Value::as_str) {
            Some("dos-benchmark/results-v1") => Ok(doc),
            other => Err(format!(
                "{which}: schema {other:?} is not dos-benchmark/results-v1"
            )),
        }
    };
    let (a, b) = (parse(a_text, "A")?, parse(b_text, "B")?);
    let mut rows = Vec::new();
    let passes: [(&str, &'static [MetricDef]); 2] = [
        ("end_to_end", &schema::END_TO_END),
        ("per_layer", &schema::PER_LAYER),
    ];
    for (pass, table) in passes {
        for w in &schema::WORKLOADS {
            for def in table {
                let (Some(va), Some(vb)) = (
                    lookup(&a, pass, w.name, def.name),
                    lookup(&b, pass, w.name, def.name),
                ) else {
                    continue;
                };
                let verdict = judge(def, (va.0, &va.1), (vb.0, &vb.1));
                rows.push(Row {
                    workload: w.name.to_string(),
                    def,
                    a: va.0,
                    b: vb.0,
                    verdict,
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload and metric".into());
    }
    Ok(Report { rows })
}

impl Report {
    /// Whether any row regressed.
    pub fn any_regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The table, one row per line.
    pub fn render(&self, a_name: &str, b_name: &str) -> String {
        let mut out = format!("A = {a_name}\nB = {b_name}\n");
        out.push_str(&format!(
            "{:<14} {:<36} {:>8} {:>14} {:>14} {:>12} {:>6}  {}\n",
            "workload", "metric", "unit", "A", "B", "B/A", "bound", "verdict"
        ));
        for r in &self.rows {
            let ratio = if r.a != 0.0 {
                format!("{:.3}x of A", r.b / r.a)
            } else {
                "-".to_string()
            };
            let bound = r.def.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            out.push_str(&format!(
                "{:<14} {:<36} {:>8} {:>14.6e} {:>14.6e} {:>12} {:>6}  {}\n",
                r.workload,
                r.def.name,
                r.def.unit,
                r.a,
                r.b,
                ratio,
                bound,
                r.verdict.as_str()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        schema::metric(name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = def("throughput_per_cpu_s"); // higher is better, bound 0.20
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(judge(rate, (100.0, &steady), (85.0, &steady)), Verdict::Ok);
        assert_eq!(
            judge(rate, (100.0, &steady), (79.0, &steady)),
            Verdict::Regressed
        );
        assert_eq!(judge(rate, (100.0, &steady), (150.0, &steady)), Verdict::Ok);
        let noisy = [70.0, 100.0, 130.0];
        assert_eq!(
            judge(rate, (100.0, &steady), (79.0, &noisy)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(rate, (100.0, &noisy), (100.0, &steady)),
            Verdict::Unresolved
        );

        let rss = def("peak_rss_mb"); // lower is better, bound 0.10
        assert_eq!(judge(rss, (100.0, &steady), (109.0, &steady)), Verdict::Ok);
        assert_eq!(
            judge(rss, (100.0, &steady), (111.0, &steady)),
            Verdict::Regressed
        );
        assert_eq!(judge(rss, (100.0, &steady), (50.0, &steady)), Verdict::Ok);
        assert_eq!(
            judge(rss, (0.0, &steady), (50.0, &steady)),
            Verdict::Unresolved
        );

        assert_eq!(
            judge(def("host.speed"), (1.0, &[]), (0.5, &[])),
            Verdict::Unbounded
        );
    }

    fn file(rate: f64, trials: [f64; 3]) -> String {
        format!(
            r#"{{"schema":"dos-benchmark/results-v1","claim":null,
                "end_to_end":{{"step_cache":{{"correct":true,"attempted":9,"failed":0,
                  "metrics":{{"throughput_per_cpu_s":{{"value":{rate},"unit":"1/s",
                              "trials":[{},{},{}]}}}}}}}},
                "per_layer":{{"step_cache":{{"metrics":{{"host.speed":{{"value":1.0,"unit":"ratio"}}}}}}}}}}"#,
            trials[0], trials[1], trials[2]
        )
    }

    #[test]
    fn files_are_compared_row_by_row() {
        let a = file(100.0, [100.0, 101.0, 99.0]);
        let b = file(70.0, [70.0, 71.0, 69.0]);
        let report = compare(&a, &b).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].verdict, Verdict::Regressed);
        assert_eq!(report.rows[1].verdict, Verdict::Unbounded);
        assert!(report.any_regressed());
        let text = report.render("a.json", "b.json");
        assert!(text.contains("0.700x of A"), "{text}");
        assert!(text.contains("regressed"));
        assert!(!compare(&a, &a).unwrap().any_regressed());
        assert!(compare("{}", &a).is_err());
        assert!(compare(&a, "not json").is_err());
    }
}
