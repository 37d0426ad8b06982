//! Machine-readable experiment reports: the `--json` / `--csv` export
//! surface of the `experiments` binary.
//!
//! Every figure builds a [`Report`] from typed [`Table`]s: a figure
//! row is a label plus one number or HOLE per column, printed in that
//! column's format. The text, JSON and CSV views all read the same
//! printed strings ([`Table::rows`]), so the exported values are equal
//! to the text output by construction — there is no second formatting
//! path to drift — and [`Report::table`] with [`Table::value`] reads
//! the numbers back. The JSON document is versioned
//! ([`EXPERIMENTS_SCHEMA`], see DESIGN.md §10); attached telemetry
//! sections carry no schema tag of their own yet — the CPI-stack
//! export defines one.

use std::path::Path;

use vr_obs::Json;

use crate::{BarChart, Table};

/// Schema tag of the exported JSON document. Bump on breaking layout
/// changes; consumers must check it before reading further.
pub const EXPERIMENTS_SCHEMA: &str = "vr-experiments-v1";

/// One renderable piece of a report, in presentation order.
#[derive(Clone, Debug)]
enum Section {
    /// A named table.
    Table { name: String, table: Table },
    /// An ASCII bar chart.
    Chart(BarChart),
    /// Free-form preformatted text (e.g. a pipeline trace).
    Note(String),
}

/// The structured result of one experiment figure: everything the
/// text renderer prints, plus derived metrics and attached telemetry,
/// exportable as JSON or CSV.
#[derive(Clone, Debug)]
pub struct Report {
    /// Stable figure id (the CLI subcommand, e.g. `fig-accuracy`).
    pub id: String,
    /// Human-readable heading.
    pub title: String,
    sections: Vec<Section>,
    metrics: Vec<(String, f64)>,
    extra: Vec<(String, Json)>,
    /// Set when the report detected a failure — `campaign run` when a
    /// point failed, `campaign verify` when the store is not clean; the
    /// driver exits non-zero after printing and exporting.
    pub failed: bool,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            sections: Vec::new(),
            metrics: Vec::new(),
            extra: Vec::new(),
            failed: false,
        }
    }

    /// Appends a named table.
    pub fn push_table(&mut self, name: &str, table: Table) {
        self.sections.push(Section::Table { name: name.to_string(), table });
    }

    /// Appends a bar chart.
    pub fn push_chart(&mut self, chart: BarChart) {
        self.sections.push(Section::Chart(chart));
    }

    /// Appends preformatted text (printed verbatim, exported as a
    /// string).
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.sections.push(Section::Note(note.into()));
    }

    /// Records a derived numeric metric (exported under `"metrics"`),
    /// unless a HOLE tainted it (`None`).
    pub fn metric(&mut self, name: &str, v: Option<f64>) {
        if let Some(v) = v {
            self.metrics.push((name.to_string(), v));
        }
    }

    /// The table pushed under `name`, if any.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.sections.iter().find_map(|s| match s {
            Section::Table { name: n, table } if n == name => Some(table),
            _ => None,
        })
    }

    /// Attaches an arbitrary JSON sub-document (e.g. a telemetry
    /// section, which carries no schema tag yet).
    pub fn attach(&mut self, name: &str, j: Json) {
        self.extra.push((name.to_string(), j));
    }

    /// The text rendering the `experiments` binary prints.
    pub fn render_text(&self) -> String {
        let mut out = format!("\n== {} ==\n\n", self.title);
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            match s {
                Section::Table { table, .. } => out.push_str(&table.render()),
                Section::Chart(c) => out.push_str(&c.render()),
                Section::Note(n) => {
                    out.push_str(n);
                    if !n.ends_with('\n') {
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// JSON rendering. Table cells are exported as the exact strings
    /// the text renderer prints.
    pub fn to_json(&self) -> Json {
        let mut tables = Vec::new();
        let mut charts = Vec::new();
        let mut notes = Vec::new();
        for s in &self.sections {
            match s {
                Section::Table { name, table } => {
                    tables.push(Json::Obj(vec![
                        ("name".into(), Json::from(name.as_str())),
                        (
                            "headers".into(),
                            Json::Arr(
                                table.headers().iter().map(|h| Json::from(h.as_str())).collect(),
                            ),
                        ),
                        (
                            "rows".into(),
                            Json::Arr(
                                table
                                    .rows()
                                    .iter()
                                    .map(|r| {
                                        Json::Arr(
                                            r.iter().map(|c| Json::from(c.as_str())).collect(),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                    ]));
                }
                Section::Chart(c) => {
                    charts.push(Json::Obj(vec![
                        ("title".into(), Json::from(c.title())),
                        (
                            "bars".into(),
                            Json::Arr(
                                c.bars()
                                    .iter()
                                    .map(|(l, v)| {
                                        Json::Obj(vec![
                                            ("label".into(), Json::from(l.as_str())),
                                            ("value".into(), Json::F64(*v)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]));
                }
                Section::Note(n) => notes.push(Json::from(n.as_str())),
            }
        }
        let mut obj = vec![
            ("id".into(), Json::from(self.id.as_str())),
            ("title".into(), Json::from(self.title.as_str())),
            ("tables".into(), Json::Arr(tables)),
        ];
        if !charts.is_empty() {
            obj.push(("charts".into(), Json::Arr(charts)));
        }
        if !notes.is_empty() {
            obj.push(("notes".into(), Json::Arr(notes)));
        }
        obj.push((
            "metrics".into(),
            Json::Obj(self.metrics.iter().map(|(n, v)| (n.clone(), Json::F64(*v))).collect()),
        ));
        for (n, j) in &self.extra {
            obj.push((n.clone(), j.clone()));
        }
        obj.push(("failed".into(), Json::Bool(self.failed)));
        Json::Obj(obj)
    }

    /// CSV rendering: every table, prefixed by a `# report/table`
    /// comment line, RFC-4180-style quoting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            let Section::Table { name, table } = s else { continue };
            out.push_str(&format!("# report: {} table: {}\n", self.id, name));
            let line = |cells: &[String]| -> String {
                let fields: Vec<String> = cells.iter().map(|c| csv_field(c)).collect();
                fields.join(",")
            };
            out.push_str(&line(table.headers()));
            out.push('\n');
            for r in table.rows() {
                out.push_str(&line(&r));
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

/// Quotes a CSV field when it contains a comma, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Run-level metadata stamped into the exported document.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// The CLI subcommand that produced the document.
    pub command: String,
    /// Instruction budget per simulation point.
    pub insts: u64,
    /// Worker threads used by the sweep runner.
    pub threads: usize,
    /// Workload scale (`"paper"` or `"test"`).
    pub scale: String,
}

/// Assembles the versioned top-level JSON document for a set of
/// reports.
pub fn export_json(reports: &[Report], meta: &RunMeta) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::from(EXPERIMENTS_SCHEMA)),
        ("command".into(), Json::from(meta.command.as_str())),
        ("insts".into(), Json::U64(meta.insts)),
        ("threads".into(), Json::U64(meta.threads as u64)),
        ("scale".into(), Json::from(meta.scale.as_str())),
        ("reports".into(), Json::Arr(reports.iter().map(Report::to_json).collect())),
    ])
}

/// Concatenates every report's CSV, prefixed with schema comment
/// lines.
pub fn export_csv(reports: &[Report], meta: &RunMeta) -> String {
    let mut out = format!("# schema: {EXPERIMENTS_SCHEMA}\n# command: {}\n", meta.command);
    for r in reports {
        out.push_str(&r.to_csv());
    }
    out
}

/// Writes the requested export artifacts.
///
/// # Errors
///
/// Returns the underlying I/O error if a file cannot be written.
pub fn write_exports(
    reports: &[Report],
    meta: &RunMeta,
    json: Option<&Path>,
    csv: Option<&Path>,
) -> std::io::Result<()> {
    if let Some(p) = json {
        std::fs::write(p, export_json(reports, meta).to_pretty())?;
    }
    if let Some(p) = csv {
        std::fs::write(p, export_csv(reports, meta))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fmt;

    fn sample() -> Report {
        let mut t = Table::new(&["benchmark", "VR"]);
        t.row(vec!["kangaroo".into(), "1.50x".into()]);
        t.row(vec!["with,comma".into(), "0.90x".into()]);
        let mut r = Report::new("fig-test", "a test figure");
        r.push_table("main", t);
        r.metric("hmean", Some(1.23));
        r.metric("tainted", None);
        r
    }

    fn meta() -> RunMeta {
        RunMeta { command: "fig-test".into(), insts: 1000, threads: 2, scale: "test".into() }
    }

    #[test]
    fn json_values_equal_the_text_output() {
        let r = sample();
        let text = r.render_text();
        let j = r.to_json();
        let rows = j
            .get("tables")
            .and_then(Json::as_arr)
            .and_then(|t| t[0].get("rows"))
            .and_then(Json::as_arr)
            .expect("rows");
        let first = rows[0].as_arr().expect("row arr");
        assert_eq!(first[0].as_str(), Some("kangaroo"));
        assert_eq!(first[1].as_str(), Some("1.50x"));
        assert!(text.contains("kangaroo") && text.contains("1.50x"));
    }

    #[test]
    fn exported_document_is_schema_versioned_and_parses_back() {
        let doc = export_json(&[sample()], &meta());
        let round = Json::parse(&doc.to_pretty()).expect("self-emitted JSON parses");
        assert_eq!(round.get("schema").and_then(Json::as_str), Some(EXPERIMENTS_SCHEMA));
        assert_eq!(round.get("insts").and_then(Json::as_u64), Some(1000));
        let reports = round.get("reports").and_then(Json::as_arr).expect("reports");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].get("id").and_then(Json::as_str), Some("fig-test"));
        let m = reports[0].get("metrics").expect("metrics");
        assert!((m.get("hmean").and_then(Json::as_f64).unwrap() - 1.23).abs() < 1e-12);
        assert!(m.get("tainted").is_none(), "a HOLE-tainted metric is not exported");
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let csv = export_csv(&[sample()], &meta());
        assert!(csv.starts_with("# schema: vr-experiments-v1\n"));
        assert!(csv.contains("benchmark,VR\n"));
        assert!(csv.contains("\"with,comma\",0.90x\n"));
    }

    #[test]
    fn a_table_is_found_by_name_and_its_numbers_read_back() {
        let mut t = Table::figure(&["benchmark", "VR"], &[Fmt::Ratio]);
        t.values("HJ8", [Some(4.05)]);
        let mut r = Report::new("x", "t");
        r.push_table("speedup", t);
        assert_eq!(r.table("speedup").and_then(|t| t.value("HJ8", "VR")), Some(4.05));
        assert!(r.table("mlp").is_none());
        assert!(r.render_text().contains("4.05x"));
    }

    #[test]
    fn failed_flag_is_exported() {
        let mut r = sample();
        r.failed = true;
        assert_eq!(r.to_json().get("failed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn notes_and_charts_render_and_export() {
        let mut r = Report::new("x", "t");
        let mut c = BarChart::new("speed");
        c.bar("VR", 2.0);
        r.push_chart(c);
        r.push_note("seq pc F D I X C");
        let text = r.render_text();
        assert!(text.contains("speed") && text.contains("seq pc"));
        let j = r.to_json();
        assert!(j.get("charts").is_some());
        assert!(j.get("notes").is_some());
    }
}
