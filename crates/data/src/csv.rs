//! Minimal CSV import/export.
//!
//! The harness writes every figure's series as CSV under `results/` and can
//! load externally supplied datasets with the layout
//! `attr_1,…,attr_d,group`. The format is deliberately tiny — inputs are
//! numeric matrices plus a label column, read without quoting. Only the
//! series writer quotes: result cells such as dataset names may hold a
//! comma.

use std::io::{BufRead, Write};
use std::path::Path;

use crate::dataset::{Dataset, DatasetError};

/// Errors raised by CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A cell failed to parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Cell content.
        cell: String,
    },
    /// A row has the wrong number of columns.
    BadWidth {
        /// 1-based line number.
        line: usize,
    },
    /// The resulting matrix failed dataset validation.
    Dataset(DatasetError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::BadNumber { line, cell } => write!(f, "line {line}: bad number {cell:?}"),
            CsvError::BadWidth { line } => write!(f, "line {line}: wrong column count"),
            CsvError::Dataset(e) => write!(f, "dataset: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Reads a dataset from `attr_1,…,attr_d,group` rows (no header). Group
/// labels are arbitrary strings; they are interned in first-seen order.
pub fn read_dataset(path: &Path, name: &str, dim: usize) -> Result<Dataset, CsvError> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut points = Vec::new();
    let mut groups = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != dim + 1 {
            return Err(CsvError::BadWidth { line: lineno + 1 });
        }
        for cell in &cells[..dim] {
            let v: f64 = cell.trim().parse().map_err(|_| CsvError::BadNumber {
                line: lineno + 1,
                cell: cell.to_string(),
            })?;
            points.push(v);
        }
        let label = cells[dim].trim();
        let gid = match names.iter().position(|n| n == label) {
            Some(i) => i,
            None => {
                names.push(label.to_string());
                names.len() - 1
            }
        };
        groups.push(gid);
    }
    Dataset::new(name, dim, points, groups, names).map_err(CsvError::Dataset)
}

/// Infers the dimensionality of a `attr_1,…,attr_d,group` file from its
/// first non-empty row (`columns − 1`; the trailing column is the group
/// label). Returns [`CsvError::BadWidth`] for an empty file or a
/// single-column row.
pub fn sniff_dim(path: &Path) -> Result<usize, CsvError> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols = line.split(',').count();
        if cols < 2 {
            return Err(CsvError::BadWidth { line: lineno + 1 });
        }
        return Ok(cols - 1);
    }
    Err(CsvError::BadWidth { line: 1 })
}

/// Reads a dataset, inferring its dimensionality via [`sniff_dim`] — the
/// loading path used by the service catalog, where files carry no schema.
pub fn read_dataset_auto(path: &Path, name: &str) -> Result<Dataset, CsvError> {
    let dim = sniff_dim(path)?;
    read_dataset(path, name, dim)
}

/// Writes a dataset as `attr_1,…,attr_d,group_name` rows.
pub fn write_dataset(path: &Path, data: &Dataset) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for i in 0..data.len() {
        for v in data.point(i) {
            write!(out, "{v},")?;
        }
        writeln!(out, "{}", data.group_names()[data.group_of(i)])?;
    }
    out.flush()
}

/// One CSV record: cells holding `,`, `"` or a line break are quoted, with
/// inner quotes doubled (RFC 4180), so each cell stays one field.
fn record<S: AsRef<str>>(cells: &[S]) -> String {
    let quoted: Vec<String> = cells
        .iter()
        .map(|c| {
            let c = c.as_ref();
            if c.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        })
        .collect();
    quoted.join(",")
}

/// Writes a result table: a header row followed by records. Used by every
/// figure binary to persist its series.
pub fn write_series(path: &Path, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{}", record(header))?;
    for row in rows {
        writeln!(out, "{}", record(row))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_dataset() {
        let dir = std::env::temp_dir().join("fairhms_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.csv");
        let d = Dataset::new(
            "tiny",
            2,
            vec![0.25, 1.0, 0.5, 0.75],
            vec![0, 1],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        write_dataset(&path, &d).unwrap();
        let r = read_dataset(&path, "tiny", 2).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.point(0), &[0.25, 1.0]);
        assert_eq!(r.group_names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn read_errors_reported_with_line() {
        let dir = std::env::temp_dir().join("fairhms_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("badnum.csv");
        std::fs::write(&p1, "1.0,zzz,a\n").unwrap();
        match read_dataset(&p1, "x", 2) {
            Err(CsvError::BadNumber { line: 1, .. }) => {}
            other => panic!("expected BadNumber, got {other:?}"),
        }
        let p2 = dir.join("badwidth.csv");
        std::fs::write(&p2, "1.0,a\n").unwrap();
        match read_dataset(&p2, "x", 2) {
            Err(CsvError::BadWidth { line: 1 }) => {}
            other => panic!("expected BadWidth, got {other:?}"),
        }
    }

    #[test]
    fn sniff_dim_and_auto_read() {
        let dir = std::env::temp_dir().join("fairhms_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sniff.csv");
        std::fs::write(&path, "\n0.5,0.25,1.0,a\n0.1,0.2,0.3,b\n").unwrap();
        assert_eq!(sniff_dim(&path).unwrap(), 3);
        let d = read_dataset_auto(&path, "sniffed").unwrap();
        assert_eq!((d.len(), d.dim(), d.num_groups()), (2, 3, 2));

        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "").unwrap();
        assert!(matches!(sniff_dim(&empty), Err(CsvError::BadWidth { .. })));
    }

    #[test]
    fn write_series_creates_directories() {
        let dir = std::env::temp_dir().join("fairhms_csv_test/nested/deep");
        let path = dir.join("s.csv");
        let _ = std::fs::remove_file(&path);
        write_series(&path, &["k", "mhr"], &[vec!["5".into(), "0.93".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "k,mhr\n5,0.93\n");
    }

    /// Splits one RFC 4180 record into its fields.
    fn fields(line: &str) -> Vec<String> {
        let (mut out, mut cell, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match (c, quoted) {
                ('"', true) if chars.peek() == Some(&'"') => {
                    cell.push('"');
                    chars.next();
                }
                ('"', _) => quoted = !quoted,
                (',', false) => out.push(std::mem::take(&mut cell)),
                _ => cell.push(c),
            }
        }
        out.push(cell);
        out
    }

    #[test]
    fn write_series_quotes_cells_holding_commas_or_quotes() {
        let dir = std::env::temp_dir().join("fairhms_csv_test");
        let path = dir.join("quoted.csv");
        let header = ["dataset", "k", "mhr"];
        let rows = vec![
            vec!["AntiCor_6D (n=2000, C=3)".into(), "5".into(), "0.9".into()],
            vec!["say \"hi\"".into(), "6".into(), "0.8".into()],
            vec!["plain".into(), "7".into(), "0.7".into()],
        ];
        write_series(&path, &header, &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines[1], "\"AntiCor_6D (n=2000, C=3)\",5,0.9");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\",6,0.8");
        assert_eq!(lines[3], "plain,7,0.7");
        for (line, row) in lines[1..].iter().zip(&rows) {
            assert_eq!(fields(line).len(), header.len(), "{line}");
            assert_eq!(&fields(line), row);
        }
    }

    /// Write errors surface, including those only a flush would report.
    #[cfg(target_os = "linux")]
    #[test]
    fn writes_to_a_full_device_fail() {
        let full = Path::new("/dev/full");
        let rows = vec![vec!["5".to_string(), "0.93".to_string()]];
        assert!(write_series(full, &["k", "mhr"], &rows).is_err());
        let d = Dataset::new("tiny", 1, vec![0.5], vec![0], vec!["a".into()]).unwrap();
        assert!(write_dataset(full, &d).is_err());
    }
}
