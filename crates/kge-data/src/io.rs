//! OpenKE-style TSV io so the real FB15K / FB250K drop in when available.
//!
//! Format: one triple per line, exactly `head<TAB>relation<TAB>tail`. Every
//! field is a name, interned into a [`Vocab`] in order of first appearance:
//! a file of integer ids (what [`save_dir`] writes) loads as names too, so
//! it reloads as an isomorphic graph whose ids may be permuted. A dataset
//! directory holds `train.txt`, `valid.txt`, `test.txt`.

use crate::dataset::Dataset;
use crate::triple::Triple;
use crate::vocab::Vocab;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// Parse one split's worth of TSV lines, interning names.
fn parse_tsv<R: BufRead>(
    reader: R,
    entities: &mut Vocab,
    relations: &mut Vocab,
) -> io::Result<Vec<Triple>> {
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (h, r, t) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(h), Some(r), Some(t), None) => (h, r, t),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: expected 3 tab-separated fields: {line:?}", lineno + 1),
                ))
            }
        };
        out.push(Triple::new(
            entities.intern(h),
            relations.intern(r),
            entities.intern(t),
        ));
    }
    Ok(out)
}

/// Load `train.txt` / `valid.txt` / `test.txt` from `dir`. Missing
/// valid/test files yield empty splits; a missing train file is an error.
pub fn load_dir(dir: &Path) -> io::Result<(Dataset, Vocab, Vocab)> {
    let mut entities = Vocab::new();
    let mut relations = Vocab::new();
    let read = |name: &str, entities: &mut Vocab, relations: &mut Vocab| -> io::Result<Vec<Triple>> {
        let path = dir.join(name);
        if !path.exists() {
            return Ok(Vec::new());
        }
        parse_tsv(BufReader::new(fs::File::open(path)?), entities, relations)
    };
    let train = read("train.txt", &mut entities, &mut relations)?;
    if train.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no train.txt (or it is empty)", dir.display()),
        ));
    }
    let valid = read("valid.txt", &mut entities, &mut relations)?;
    let test = read("test.txt", &mut entities, &mut relations)?;
    let ds = Dataset {
        name: dir
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "dataset".into()),
        n_entities: entities.len(),
        n_relations: relations.len(),
        train,
        valid,
        test,
    };
    ds.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((ds, entities, relations))
}

/// Write a split as TSV of numeric ids.
fn write_tsv<W: Write>(mut w: W, triples: &[Triple]) -> io::Result<()> {
    for t in triples {
        writeln!(w, "{}\t{}\t{}", t.head, t.rel, t.tail)?;
    }
    Ok(())
}

/// Save all three splits of `ds` into `dir` (numeric-id TSV).
pub fn save_dir(ds: &Dataset, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for (name, split) in [
        ("train.txt", &ds.train),
        ("valid.txt", &ds.valid),
        ("test.txt", &ds.test),
    ] {
        write_tsv(fs::File::create(dir.join(name))?, split)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_tsv() {
        let input = "delhi\tcapital_of\tindia\nparis\tcapital_of\tfrance\n";
        let mut e = Vocab::new();
        let mut r = Vocab::new();
        let triples = parse_tsv(input.as_bytes(), &mut e, &mut r).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(e.len(), 4);
        assert_eq!(r.len(), 1);
        assert_eq!(triples[0], Triple::new(0, 0, 1));
        assert_eq!(triples[1], Triple::new(2, 0, 3));
    }

    #[test]
    fn parse_skips_blank_and_comment_lines() {
        let input = "\n# comment\na\tb\tc\n";
        let mut e = Vocab::new();
        let mut r = Vocab::new();
        let triples = parse_tsv(input.as_bytes(), &mut e, &mut r).unwrap();
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let input = "only\ttwo\n";
        let mut e = Vocab::new();
        let mut r = Vocab::new();
        let err = parse_tsv(input.as_bytes(), &mut e, &mut r).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn parse_rejects_lines_with_more_than_three_fields() {
        let input = "a\tb\tc\na\tb\tc\td\n";
        let mut e = Vocab::new();
        let mut r = Vocab::new();
        let err = parse_tsv(input.as_bytes(), &mut e, &mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2: expected 3 tab-separated fields"), "{err}");
    }

    #[test]
    fn roundtrip_through_directory() {
        let dir = std::env::temp_dir().join(format!("kge-io-test-{}", std::process::id()));
        let ds = Dataset {
            name: "rt".into(),
            n_entities: 3,
            n_relations: 2,
            train: vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)],
            valid: vec![Triple::new(0, 1, 2)],
            test: vec![Triple::new(2, 0, 0)],
        };
        save_dir(&ds, &dir).unwrap();
        let (loaded, ents, rels) = load_dir(&dir).unwrap();
        assert_eq!(loaded.train.len(), 2);
        assert_eq!(loaded.valid.len(), 1);
        assert_eq!(loaded.test.len(), 1);
        // Ids were written numerically and re-interned as names; the graph
        // is isomorphic even if ids permute.
        assert_eq!(ents.len(), 3);
        assert_eq!(rels.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_errors() {
        let err = load_dir(Path::new("/nonexistent/kge-data")).unwrap_err();
        assert!(err.to_string().contains("train.txt"));
    }
}
