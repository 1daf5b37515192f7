//! The one output model of `anoc run`.
//!
//! Every target builds a [`Table`]: an id, a title, typed columns, rows of
//! [`Cell`]s and free-text notes. Three generic renderers print it as
//! aligned text, CSV or JSON. A column's [`Kind`] fixes how its cells print
//! in all three, so the formats of one table cannot drift apart.

use std::fmt::Write as _;

/// How `anoc run` prints a table (`--csv`, `--json`, else text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// The title, aligned columns, then the notes.
    #[default]
    Text,
    /// One header line, then one line per row (RFC 4180 quoting).
    Csv,
    /// `{"study":"<id>","rows":[{"<column>":<value>, …}, …]}`.
    Json,
}

/// What a column holds and how its cells print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Free text; left-aligned in the text form, a string in JSON.
    Text,
    /// An unsigned integer.
    Int,
    /// `true` or `false`.
    Bool,
    /// A float with this many decimals.
    Fixed(usize),
    /// A float in its shortest round-trip form (`{}`).
    Shortest,
}

/// One table cell. Its variant must match its column's [`Kind`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A [`Kind::Text`] value.
    Text(String),
    /// A [`Kind::Int`] value.
    Int(u64),
    /// A [`Kind::Bool`] value.
    Bool(bool),
    /// A [`Kind::Fixed`] or [`Kind::Shortest`] value.
    Float(f64),
    /// No value (a failed cell): `-` in text, empty in CSV, `null` in JSON.
    Missing,
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell::Int(v.into())
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Self {
        v.map_or(Cell::Missing, Into::into)
    }
}

impl Cell {
    /// The cell as its column prints it, or `None` when missing.
    fn show(&self, kind: Kind) -> Option<String> {
        Some(match (self, kind) {
            (Cell::Missing, _) => return None,
            (Cell::Text(s), _) => s.clone(),
            (Cell::Int(v), _) => v.to_string(),
            (Cell::Bool(v), _) => v.to_string(),
            (Cell::Float(v), Kind::Fixed(digits)) => format!("{v:.digits$}"),
            (Cell::Float(v), _) => v.to_string(),
        })
    }

    fn fits(&self, kind: Kind) -> bool {
        matches!(
            (self, kind),
            (Cell::Missing, _)
                | (Cell::Text(_), Kind::Text)
                | (Cell::Int(_), Kind::Int)
                | (Cell::Bool(_), Kind::Bool)
                | (Cell::Float(_), Kind::Fixed(_) | Kind::Shortest)
        )
    }
}

/// One study's result: typed columns and rows, plus text-only notes.
#[derive(Debug, Clone)]
pub struct Table {
    /// The `study` field of the JSON form (`fig9`, `qos`, …).
    pub id: &'static str,
    /// The first line of the text form.
    pub title: String,
    columns: Vec<(&'static str, Kind)>,
    rows: Vec<Vec<Cell>>,
    /// Lines printed after the text form only (summaries, failed cells).
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table with these `(name, kind)` columns.
    pub fn new(
        id: &'static str,
        title: impl Into<String>,
        columns: &[(&'static str, Kind)],
    ) -> Self {
        Table {
            id,
            title: title.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width or a cell's variant does not match the
    /// columns: a bug in the study that built the table.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.id);
        for (cell, (name, kind)) in row.iter().zip(&self.columns) {
            assert!(
                cell.fits(*kind),
                "{}: {cell:?} in {kind:?} column {name}",
                self.id
            );
        }
        self.rows.push(row);
    }

    /// The table in `format`.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.text(),
            Format::Csv => self.csv(),
            Format::Json => self.json(),
        }
    }

    /// Each row's cells as their columns print them.
    fn shown(&self) -> impl Iterator<Item = impl Iterator<Item = Option<String>> + '_> + '_ {
        self.rows.iter().map(|row| {
            row.iter()
                .zip(&self.columns)
                .map(|(cell, (_, kind))| cell.show(*kind))
        })
    }

    fn text(&self) -> String {
        let header = self.columns.iter().map(|(name, _)| name.to_string());
        let lines: Vec<Vec<String>> = std::iter::once(header.collect())
            .chain(
                self.shown()
                    .map(|row| row.map(|c| c.unwrap_or_else(|| "-".into())).collect()),
            )
            .collect();
        let mut widths = vec![0; self.columns.len()];
        for line in &lines {
            for (w, cell) in widths.iter_mut().zip(line) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        for line in &lines {
            let mut l = String::new();
            for (i, (cell, (w, (_, kind)))) in line
                .iter()
                .zip(widths.iter().zip(&self.columns))
                .enumerate()
            {
                let sep = if i == 0 { "" } else { "  " };
                let _ = match kind {
                    Kind::Text => write!(l, "{sep}{cell:<w$}"),
                    _ => write!(l, "{sep}{cell:>w$}"),
                };
            }
            out.push_str(l.trim_end());
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    fn csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let header = self.columns.iter().map(|(name, _)| field(name));
        let mut out = header.collect::<Vec<_>>().join(",");
        out.push('\n');
        for row in self.shown() {
            let cells: Vec<String> = row
                .map(|c| c.as_deref().map(field).unwrap_or_default())
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    fn json(&self) -> String {
        let mut out = format!("{{\"study\":{},\"rows\":[", json_string(self.id));
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n  {" } else { ",\n  {" });
            for (j, (cell, (name, kind))) in row.iter().zip(&self.columns).enumerate() {
                let value = match cell {
                    Cell::Text(s) => json_string(s),
                    Cell::Float(v) if !v.is_finite() => "null".into(),
                    _ => cell.show(*kind).unwrap_or_else(|| "null".into()),
                };
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}{}:{value}", json_string(name));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cell of every kind, a missing cell and a non-finite float.
    fn sample() -> Table {
        let mut t = Table::new(
            "sample",
            "Sample table",
            &[
                ("name", Kind::Text),
                ("count", Kind::Int),
                ("fixed", Kind::Fixed(3)),
                ("shortest", Kind::Shortest),
                ("ok", Kind::Bool),
            ],
        );
        t.push(vec![
            "say \"hi\", world".into(),
            42u64.into(),
            1.23456.into(),
            0.1.into(),
            true.into(),
        ]);
        t.push(vec![
            "plain".into(),
            Option::<u64>::None.into(),
            f64::NAN.into(),
            15.833333333333334.into(),
            false.into(),
        ]);
        t.notes.push("note: text only".into());
        t
    }

    #[test]
    fn text_aligns_columns_and_appends_notes() {
        assert_eq!(
            sample().render(Format::Text),
            "Sample table
name             count  fixed            shortest     ok
say \"hi\", world     42  1.235                 0.1   true
plain                -    NaN  15.833333333333334  false
note: text only
"
        );
    }

    #[test]
    fn csv_quotes_only_fields_that_need_it() {
        assert_eq!(
            sample().render(Format::Csv),
            "name,count,fixed,shortest,ok
\"say \"\"hi\"\", world\",42,1.235,0.1,true
plain,,NaN,15.833333333333334,false
"
        );
    }

    #[test]
    fn json_escapes_strings_and_nulls_missing_values() {
        assert_eq!(
            sample().render(Format::Json),
            r#"{"study":"sample","rows":[
  {"name":"say \"hi\", world","count":42,"fixed":1.235,"shortest":0.1,"ok":true},
  {"name":"plain","count":null,"fixed":null,"shortest":15.833333333333334,"ok":false}
]}
"#
        );
        assert_eq!(json_string("a\\b\n\t\u{1}"), r#""a\\b\n\t\u0001""#);
        let empty = Table::new("none", "", &[("x", Kind::Int)]);
        assert_eq!(
            empty.render(Format::Json),
            "{\"study\":\"none\",\"rows\":[\n]}\n"
        );
    }

    #[test]
    #[should_panic(expected = "Float(1.0) in Int column n")]
    fn a_cell_must_match_its_column_kind() {
        let mut t = Table::new("bad", "", &[("n", Kind::Int)]);
        t.push(vec![1.0.into()]);
    }
}
