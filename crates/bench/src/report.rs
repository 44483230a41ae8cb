//! Result tables, aligned console output, and CSV export.

use std::fmt::Write as _;
use std::path::Path;

/// One named series over a common x-axis.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// y values, aligned with the owning table's x values.
    pub y: Vec<f64>,
}

/// A whole figure: x-axis + series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table title (e.g. `"Figure 6: varying cache hit probability"`).
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// x values.
    pub x: Vec<f64>,
    /// The series.
    pub series: Vec<Series>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, x_label: &str, x: Vec<f64>) -> Table {
        Table {
            title: title.to_string(),
            x_label: x_label.to_string(),
            x,
            series: Vec::new(),
        }
    }

    /// Add one series (must match the x length).
    pub fn push_series(&mut self, label: &str, y: Vec<f64>) -> &mut Self {
        assert_eq!(y.len(), self.x.len(), "series length mismatch");
        self.series.push(Series {
            label: label.to_string(),
            y,
        });
        self
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header = format!("{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(header, " {:>16}", s.label);
        }
        let _ = writeln!(out, "{header}");
        for (i, x) in self.x.iter().enumerate() {
            let mut row = format!("{x:>14.4}");
            for s in &self.series {
                let _ = write!(row, " {:>16.2}", s.y[i]);
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut header = self.x_label.clone();
        for s in &self.series {
            let _ = write!(header, ",{}", s.label);
        }
        let _ = writeln!(out, "{header}");
        for (i, x) in self.x.iter().enumerate() {
            let mut row = format!("{x}");
            for s in &self.series {
                let _ = write!(row, ",{}", s.y[i]);
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }
}

/// Write a table as CSV under `EXPERIMENTS_OUTPUT/` (created on demand),
/// returning the path written. Failures are reported, not fatal — the
/// console output is the primary artifact.
pub fn write_csv(table: &Table, file_stem: &str) -> Option<std::path::PathBuf> {
    let dir = Path::new("EXPERIMENTS_OUTPUT");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return None;
    }
    let path = dir.join(format!("{file_stem}.csv"));
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {path:?}: {e}");
            None
        }
    }
}

/// Write a telemetry snapshot as `EXPERIMENTS_OUTPUT/<file_stem>.telemetry.json`
/// (and echo its aligned-text rendering to stderr when `ACQ_TELEMETRY_TEXT`
/// is set), returning the path written. Same failure policy as
/// [`write_csv`]: the CSV/console output remains the primary artifact.
pub fn write_snapshot(
    snapshot: &acq::TelemetrySnapshot,
    file_stem: &str,
) -> Option<std::path::PathBuf> {
    let dir = Path::new("EXPERIMENTS_OUTPUT");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return None;
    }
    if std::env::var_os("ACQ_TELEMETRY_TEXT").is_some() {
        eprintln!("{}", snapshot.render_text());
    }
    let path = dir.join(format!("{file_stem}.telemetry.json"));
    match std::fs::write(&path, snapshot.to_json()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {path:?}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("Figure X", "r", vec![1.0, 2.0]);
        t.push_series("With caches", vec![100.0, 200.0]);
        t.push_series("MJoin", vec![90.0, 120.0]);
        let text = t.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("With caches"));
        assert!(text.lines().count() == 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "r,With caches,MJoin");
        assert!(csv.lines().nth(1).unwrap().starts_with("1,100"));
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn mismatched_series_panics() {
        let mut t = Table::new("t", "x", vec![1.0]);
        t.push_series("bad", vec![1.0, 2.0]);
    }
}
