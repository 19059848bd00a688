//! Report plumbing: JSON values, summary statistics, failure accounting
//! and the `compare` subcommand.

use crate::catalog::{Better, END_TO_END, WORKLOADS};
use pic_types::stats::percentile;
use serde::{Deserialize, Serialize, Value};

/// A raw JSON tree (the vendored serde has no `Deserialize for Value`).
pub struct Json(pub Value);

impl Deserialize for Json {
    fn deserialize(v: &Value) -> Result<Json, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Serialize for Json {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

pub fn to_json(v: &Value, pretty: bool) -> String {
    let j = Json(v.clone());
    if pretty {
        serde_json::to_string_pretty(&j)
    } else {
        serde_json::to_string(&j)
    }
    .expect("a Value tree serializes")
}

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map().and_then(|m| serde::find_key(m, key))
}

pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Float(x)).collect())
}

/// `{"value": .., "unit": ..}`, the driver's shape of one metric.
pub fn metric(value: f64, unit: &str) -> Value {
    map(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// A timing as the report states it: the samples' median as `value`,
/// plus min, quartiles and sample count.
pub fn summary(samples: &[f64], unit: &str) -> Value {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    map(vec![
        ("value", Value::Float(median(samples))),
        ("unit", Value::Str(unit.to_string())),
        (
            "min",
            Value::Float(if samples.is_empty() { 0.0 } else { min }),
        ),
        ("q1", Value::Float(percentile(samples, 25.0))),
        ("q3", Value::Float(percentile(samples, 75.0))),
        ("n", Value::UInt(samples.len() as u64)),
    ])
}

/// Operation accounting. An operation fails on an error (an `Err` from
/// the path or from a validator) or on an answer that differs from the
/// first answer given for the same question.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
    reference: std::collections::BTreeMap<String, String>,
}

impl Tally {
    /// Count one operation. `outcome` is the answer's digest (or response
    /// bytes) on success; `question` names what was asked, so that every
    /// later answer to it is held to the first.
    pub fn record(&mut self, question: &str, outcome: Result<String, String>) -> bool {
        self.attempted += 1;
        let failure = match outcome {
            Err(e) => Some(e),
            Ok(answer) => match self.reference.get(question) {
                None => {
                    self.reference.insert(question.to_string(), answer);
                    None
                }
                Some(first) if *first == answer => None,
                Some(_) => Some(format!("{question}: answer differs from the first one")),
            },
        };
        if let Some(e) = &failure {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
        failure.is_none()
    }

    /// A zeroed tally that holds later answers to this one's references
    /// (one per client thread; [`Tally::merge`] folds it back).
    pub fn fork(&self) -> Tally {
        Tally {
            reference: self.reference.clone(),
            ..Tally::default()
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// One of the two documents does not have the row.
    Missing,
}

/// Judge one end-to-end metric of run B against run A. `a` and `b` are
/// summaries as [`summary`] writes them.
pub fn judge(a: &Value, b: &Value, better: Better, bound: f64) -> Verdict {
    let get = |v: &Value, k: &str| field(v, k).and_then(Value::as_f64).unwrap_or(0.0);
    let (ma, mb) = (get(a, "value"), get(b, "value"));
    let spread = |v: &Value, m: f64| {
        if m == 0.0 {
            0.0
        } else {
            (get(v, "q3") - get(v, "q1")).abs() / m.abs()
        }
    };
    if spread(a, ma) > bound || spread(b, mb) > bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if ma != 0.0 && worse / ma.abs() > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `compare A.json B.json`: one row per workload x end-to-end metric,
/// plus the failure and answer-error rows. A row that one document lacks
/// reads `missing`. Returns the rows and whether any regressed.
pub fn compare(a: &Value, b: &Value) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut regressed = false;
    let mut push = |w: &str, m: &str, va: Option<f64>, vb: Option<f64>, verdict: Verdict| {
        regressed |= verdict == Verdict::Regressed;
        let word = match verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        };
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
        rows.push(format!(
            "{w:<16} {m:<16} {:>14} {:>14}  {word}",
            show(va),
            show(vb)
        ));
    };
    let num = |v: Option<&Value>, k: &str| v.and_then(|v| field(v, k)).and_then(Value::as_f64);
    for w in &WORKLOADS {
        let pick = |doc: &Value| -> Option<Value> {
            field(doc, "workloads")
                .and_then(|ws| field(ws, w.name))
                .cloned()
        };
        let (wa, wb) = (pick(a), pick(b));
        for m in &END_TO_END {
            let at = |w: &Option<Value>| {
                let e2e = w.as_ref().and_then(|w| field(w, "end_to_end"));
                e2e.and_then(|e| field(e, m.name)).cloned()
            };
            let (sa, sb) = (at(&wa), at(&wb));
            let verdict = match (&sa, &sb) {
                (Some(sa), Some(sb)) => judge(sa, sb, m.better, m.bound),
                _ => Verdict::Missing,
            };
            let (va, vb) = (num(sa.as_ref(), "value"), num(sb.as_ref(), "value"));
            push(w.name, m.name, va, vb, verdict);
        }
        // failed operations: any increase regresses; answer error: +0.01 points.
        for (key, slack) in [("failed_ops_pct", 0.0), ("answer_err_pct", 0.01)] {
            let (va, vb) = (num(wa.as_ref(), key), num(wb.as_ref(), key));
            let verdict = match (va, vb) {
                (Some(va), Some(vb)) if vb > va + slack => Verdict::Regressed,
                (Some(_), Some(_)) => Verdict::Ok,
                _ => Verdict::Missing,
            };
            push(w.name, key, va, vb, verdict);
        }
    }
    (rows, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_error_from_the_path_or_a_validator_is_a_failed_op() {
        let mut t = Tally::default();
        assert!(t.record("pass", Ok("digest-a".into())));
        assert!(!t.record("pass", Err("real counts differ at sample 3".into())));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }

    #[test]
    fn a_corrupted_answer_digest_is_a_failed_op() {
        let mut t = Tally::default();
        assert!(t.record("pass", Ok("digest-a".into())));
        assert!(t.record("pass", Ok("digest-a".into())));
        assert!(!t.record("pass", Ok("digest-b".into())));
        assert_eq!((t.attempted, t.failed), (3, 1));
    }

    #[test]
    fn compare_names_a_row_that_one_document_lacks() {
        let s = summary(&[1.0, 1.0, 1.0], "s");
        let e2e = Value::Map(vec![("wall_s".to_string(), s)]);
        let w = map(vec![
            ("failed_ops_pct", Value::Float(0.0)),
            ("answer_err_pct", Value::Float(8.2)),
            ("end_to_end", e2e),
        ]);
        let doc = |w: Value| {
            let ws = Value::Map(vec![("predict-4k".to_string(), w)]);
            map(vec![("workloads", ws)])
        };
        let (rows, regressed) = compare(&doc(w.clone()), &doc(w));
        assert!(!regressed);
        let rows_per_workload = END_TO_END.len() + 2;
        assert_eq!(rows.len(), WORKLOADS.len() * rows_per_workload);
        let word = |row: &String| row.split_whitespace().last().unwrap().to_string();
        // predict-4k has wall_s and the two absolute rows, nothing else
        let ok = rows.iter().filter(|r| word(r) == "ok").count();
        assert_eq!(ok, 3);
        assert!(rows
            .iter()
            .filter(|r| word(r) != "ok")
            .all(|r| word(r) == "missing"));
    }

    #[test]
    fn judge_applies_bound_and_direction() {
        let s = |v: f64, q1: f64, q3: f64| summary(&[q1, q1, v, q3, q3], "s");
        // 5 % slower is inside a 10 % bound, 20 % slower is not
        assert_eq!(
            judge(
                &s(1.0, 0.99, 1.01),
                &s(1.05, 1.04, 1.06),
                Better::Lower,
                0.1
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(&s(1.0, 0.99, 1.01), &s(1.2, 1.19, 1.21), Better::Lower, 0.1),
            Verdict::Regressed
        );
        // a throughput that rises is not a regression
        assert_eq!(
            judge(
                &s(1.0, 0.99, 1.01),
                &s(1.5, 1.49, 1.51),
                Better::Higher,
                0.1
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &s(1.0, 0.99, 1.01),
                &s(0.8, 0.79, 0.81),
                Better::Higher,
                0.1
            ),
            Verdict::Regressed
        );
        // quartiles wider than the bound: unresolved either way
        assert_eq!(
            judge(&s(1.0, 0.8, 1.2), &s(1.0, 0.99, 1.01), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
