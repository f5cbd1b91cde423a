//! Tab-separated I/O for relations: the on-disk interchange format of the
//! command-line tool.
//!
//! A relation file is one tuple per line, fields separated by tabs. Fields
//! parse as integers when possible and as strings otherwise; arity is
//! inferred from the first line and enforced afterwards.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::batch::ValueRef;
use crate::error::{GumboError, Result};
use crate::relation::{Relation, RelationName};
use crate::tuple::Tuple;
use crate::value::Value;

/// Parse one field: integer if it lexes as one, string otherwise.
fn parse_field(field: &str) -> Value {
    match field.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::str(field),
    }
}

/// Render one value in TSV form (strings unquoted; tabs are not allowed).
fn render_field(value: ValueRef<'_>) -> Result<String> {
    Ok(match value {
        ValueRef::Int(i) => i.to_string(),
        ValueRef::Str(s) => {
            if s.contains('\t') || s.contains('\n') {
                return Err(GumboError::Storage(
                    "string values with tabs/newlines cannot be written as TSV".into(),
                ));
            }
            s.to_string()
        }
    })
}

/// Parse a relation from TSV text.
pub fn parse_tsv(name: impl Into<RelationName>, text: &str) -> Result<Relation> {
    let name = name.into();
    let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
    let arity = match lines.peek() {
        Some(first) => first.split('\t').count(),
        None => {
            return Err(GumboError::Storage(format!(
                "cannot infer arity of empty relation file for {name}"
            )))
        }
    };
    let tuples = lines.map(|line| line.split('\t').map(parse_field).collect::<Tuple>());
    Relation::from_tuples(name, arity, tuples)
}

/// Render a relation as TSV text (deterministic, sorted tuple order).
pub fn to_tsv(relation: &Relation) -> Result<String> {
    let mut out = String::new();
    for tuple in relation.iter() {
        let fields: Result<Vec<String>> = tuple.values().map(render_field).collect();
        out.push_str(&fields?.join("\t"));
        out.push('\n');
    }
    Ok(out)
}

/// Read a relation from a `.tsv` file; the relation is named after the
/// file stem.
pub fn read_tsv_file(path: &Path) -> Result<Relation> {
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| GumboError::Storage(format!("bad relation file name: {path:?}")))?;
    let text = fs::read_to_string(path)
        .map_err(|e| GumboError::Storage(format!("reading {path:?}: {e}")))?;
    parse_tsv(name, &text)
}

/// Write a relation to a `.tsv` file.
pub fn write_tsv_file(relation: &Relation, path: &Path) -> Result<()> {
    let text = to_tsv(relation)?;
    let mut file = fs::File::create(path)
        .map_err(|e| GumboError::Storage(format!("creating {path:?}: {e}")))?;
    file.write_all(text.as_bytes())
        .map_err(|e| GumboError::Storage(format!("writing {path:?}: {e}")))
}

/// Load every `*.tsv` file of a directory as a relation (named after the
/// file stem), returning them sorted by name.
pub fn read_tsv_dir(dir: &Path) -> Result<Vec<Relation>> {
    let entries = fs::read_dir(dir)
        .map_err(|e| GumboError::Storage(format!("reading directory {dir:?}: {e}")))?;
    let mut relations = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| GumboError::Storage(format!("listing {dir:?}: {e}")))?
            .path();
        if path.extension().and_then(|e| e.to_str()) == Some("tsv") {
            relations.push(read_tsv_file(&path)?);
        }
    }
    relations.sort_by(|a, b| a.name().cmp(b.name()));
    Ok(relations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_infers_types_and_arity() {
        let rel = parse_tsv("R", "1\t2\n3\tbad\n").unwrap();
        assert_eq!(rel.arity(), 2);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&Tuple::new(vec![Value::Int(3), Value::str("bad")])));
    }

    #[test]
    fn arity_mismatch_rejected() {
        assert!(parse_tsv("R", "1\t2\n3\n").is_err());
    }

    #[test]
    fn empty_file_rejected() {
        assert!(parse_tsv("R", "\n\n").is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let rel = parse_tsv("R", "\n1\t2\n\n3\t4\n\n").unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn roundtrip_through_tsv() {
        let rel = parse_tsv("R", "2\tbeta\n1\talpha\n").unwrap();
        let text = to_tsv(&rel).unwrap();
        // Sorted output: 1 before 2.
        assert_eq!(text, "1\talpha\n2\tbeta\n");
        let back = parse_tsv("R", &text).unwrap();
        assert_eq!(rel, back);
    }

    #[test]
    fn tabs_in_strings_refused_on_write() {
        let mut rel = Relation::new("R", 1);
        rel.insert(Tuple::new(vec![Value::str("a\tb")])).unwrap();
        assert!(to_tsv(&rel).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gumbo-io-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let rel = parse_tsv("Events", "1\t100\n2\t200\n").unwrap();
        let path = dir.join("Events.tsv");
        write_tsv_file(&rel, &path).unwrap();
        let back = read_tsv_file(&path).unwrap();
        assert_eq!(back.name().as_str(), "Events");
        assert_eq!(back, rel.renamed("Events"));

        let all = read_tsv_dir(&dir).unwrap();
        assert_eq!(all.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
