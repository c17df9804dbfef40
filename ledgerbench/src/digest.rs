//! Order-independent digests of SPARQL JSON results.
//!
//! Every result is compared in its wire form, the SPARQL 1.1 Query
//! Results JSON the endpoint streams: embedded results are serialized
//! with `results_io::write_json` first, HTTP bodies are used as they
//! arrive. A row is the text of one binding object; the digest is the
//! wrapping sum of a mixed hash per row, so it ignores row order and
//! keeps multiplicities.

use std::collections::BTreeMap;

/// A result's row count and multiset digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The binding objects of a SELECT body as raw text slices, or the
/// boolean of an ASK body.
pub enum Rows<'a> {
    Select(Vec<&'a str>),
    Ask(bool),
}

/// Splits a SPARQL JSON body into its rows.
pub fn rows(body: &str) -> Result<Rows<'_>, String> {
    if let Some(i) = body.find("\"boolean\":") {
        let rest = body[i + 10..].trim_start();
        return if rest.starts_with("true") {
            Ok(Rows::Ask(true))
        } else if rest.starts_with("false") {
            Ok(Rows::Ask(false))
        } else {
            Err("malformed boolean result".into())
        };
    }
    let start = body
        .find("\"bindings\"")
        .and_then(|i| body[i..].find('[').map(|j| i + j + 1))
        .ok_or("no bindings array")?;
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut esc, mut row_start) = (0usize, false, false, 0usize);
    for (k, &b) in bytes.iter().enumerate().skip(start) {
        if in_str {
            match (esc, b) {
                (true, _) => esc = false,
                (false, b'\\') => esc = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    row_start = k;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if depth == 0 {
                    out.push(&body[row_start..=k]);
                }
            }
            b']' if depth == 0 => return Ok(Rows::Select(out)),
            _ => {}
        }
    }
    Err("unterminated bindings array".into())
}

/// Digest of a SPARQL JSON body.
pub fn of_json(body: &str) -> Result<Digest, String> {
    Ok(match rows(body)? {
        Rows::Ask(b) => Digest {
            rows: 1,
            hash: mix(fnv1a(if b { b"true" } else { b"false" })),
        },
        Rows::Select(rs) => Digest {
            rows: rs.len(),
            hash: rs
                .iter()
                .fold(0u64, |acc, r| acc.wrapping_add(mix(fnv1a(r.as_bytes())))),
        },
    })
}

/// Digest of an embedded result, via its JSON serialization.
pub fn of_results(r: &sparqlog::QueryResults) -> Result<Digest, String> {
    let json = sparqlog::results_io::to_json(r).map_err(|e| e.to_string())?;
    of_json(&json)
}

/// Recorded digests, keyed by `(workload, query id)`.
pub type Recorded = BTreeMap<(String, String), Digest>;

/// Parses the `<workload> <query> <rows> <hex digest>` lines of the
/// digests file (`#` comments and `xcheck` lines are skipped).
pub fn load_str(text: &str) -> Result<Recorded, String> {
    let mut out = Recorded::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.is_empty() || f[0].starts_with('#') || f[0] == "xcheck" {
            continue;
        }
        let [w, q, rows, hash] = f[..] else {
            return Err(format!("bad digest line {line:?}"));
        };
        let d = Digest {
            rows: rows
                .parse()
                .map_err(|_| format!("bad row count in {line:?}"))?,
            hash: u64::from_str_radix(hash, 16).map_err(|_| format!("bad digest in {line:?}"))?,
        };
        out.insert((w.to_string(), q.to_string()), d);
    }
    Ok(out)
}

pub fn line(workload: &str, query: &str, d: Digest) -> String {
    format!("{workload} {query} {} {:016x}", d.rows, d.hash)
}

/// Compares computed digests of one workload with the recorded ones;
/// returns one message per query that differs or was never recorded.
pub fn compare(recorded: &Recorded, workload: &str, got: &[(String, Digest)]) -> Vec<String> {
    let mut bad = Vec::new();
    for (q, d) in got {
        match recorded.get(&(workload.to_string(), q.clone())) {
            Some(r) if r == d => {}
            Some(r) => bad.push(format!(
                "{workload} {q}: {} rows / {:016x}, recorded {} rows / {:016x}",
                d.rows, d.hash, r.rows, r.hash
            )),
            None => bad.push(format!("{workload} {q}: no recorded digest")),
        }
    }
    let expected = recorded.keys().filter(|(w, _)| w == workload).count();
    if expected != got.len() {
        bad.push(format!(
            "{workload}: {} queries checked, {expected} recorded",
            got.len()
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"literal","value":"x}{\"y"}},{"a":{"type":"uri","value":"http://e/1"}},{"a":{"type":"uri","value":"http://e/1"}}]}}"#;

    #[test]
    fn rows_are_split_around_braces_inside_strings() {
        let Rows::Select(rs) = rows(BODY).unwrap() else {
            panic!("select expected")
        };
        assert_eq!(rs.len(), 3);
        assert!(rs[0].ends_with(r#""x}{\"y"}}"#));
    }

    #[test]
    fn digest_ignores_order_but_keeps_multiplicity() {
        let swapped = r#"{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"uri","value":"http://e/1"}},{"a":{"type":"literal","value":"x}{\"y"}},{"a":{"type":"uri","value":"http://e/1"}}]}}"#;
        assert_eq!(of_json(BODY).unwrap(), of_json(swapped).unwrap());
        let once = r#"{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"literal","value":"x}{\"y"}},{"a":{"type":"uri","value":"http://e/1"}}]}}"#;
        assert_ne!(of_json(BODY).unwrap().hash, of_json(once).unwrap().hash);
        assert_eq!(of_json(r#"{"head":{},"boolean":true}"#).unwrap().rows, 1);
        assert_ne!(
            of_json(r#"{"head":{},"boolean":true}"#).unwrap(),
            of_json(r#"{"head":{},"boolean":false}"#).unwrap()
        );
        assert!(of_json(r#"{"head":{}}"#).is_err());
    }
}
