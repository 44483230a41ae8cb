//! The run's result: metrics, batch tallies, gate failures and the record
//! of how the numbers were obtained, printed as JSON.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::pass::{Pass, Tally};
use crate::workload::Workload;

pub enum Json {
    U(u64),
    F(f64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj(fields: Vec<(&'static str, Json)>) -> Json {
        Json::Obj(fields)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::U(v) => {
                let _ = write!(out, "{v}");
            }
            // Non-finite values have no JSON form.
            Json::F(v) if !v.is_finite() => out.push_str("null"),
            // `{}` prints the shortest digits that read back to the same
            // value: every digit as measured.
            Json::F(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{k}\": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub record: Vec<(&'static str, Json)>,
    pub tally: Tally,
    /// Gate failures that are not a single batch's: invariant violations,
    /// a missing plan switch, a reference that disagrees with the oracle.
    pub violations: Vec<String>,
}

impl Report {
    pub fn failed_gate(why: String) -> Report {
        Report {
            violations: vec![why],
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn absorb(&mut self, t: Tally) {
        self.tally.attempted += t.attempted;
        self.tally.failed += t.failed;
        self.tally.errors.extend(t.errors);
    }

    /// Fold a finished pass's tally in, and check the executor's structural
    /// invariants and, on a workload with a rate burst, that the plan
    /// moved its cache from ∆T's pipeline to ∆R's.
    pub fn audit(&mut self, w: &Workload, p: &mut Pass) {
        self.absorb(std::mem::take(&mut p.tally));
        if self.tally.failed > 0 {
            return;
        }
        if w.check_invariants {
            for v in p.engine().check_structural_invariants() {
                self.violations.push(format!("{}: invariant: {v}", w.name));
            }
        }
        if w.burst_at.is_some() {
            let before = p.pre_burst_pipelines.clone().unwrap_or_default();
            let after = crate::pass::cached_pipelines(p.engine());
            if !(before.contains(&2) && after.contains(&0) && before != after) {
                self.violations.push(format!(
                    "no plan switch across the burst: cached pipelines {before:?} -> {after:?}"
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.violations.is_empty() && self.tally.attempted > 0
    }

    /// Print the record line and the result line; the exit code says
    /// whether the correctness gate passed.
    pub fn print(mut self) -> ExitCode {
        let correct = self.correct();
        for e in self.tally.errors.iter().chain(&self.violations) {
            eprintln!("perfbench: gate: {e}");
        }
        self.record.push((
            "gate_errors",
            Json::Arr(
                self.tally
                    .errors
                    .iter()
                    .chain(&self.violations)
                    .map(|e| Json::str(e))
                    .collect(),
            ),
        ));
        println!(
            "{}",
            Json::obj(vec![("record", Json::Obj(self.record))]).render()
        );
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj(vec![("value", Json::F(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        let result = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            // A gate failure outside any batch still fails the run.
            ("attempted", Json::U(self.tally.attempted.max(1))),
            (
                "failed",
                Json::U(if correct { 0 } else { self.tally.failed.max(1) }),
            ),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", result.render());
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
