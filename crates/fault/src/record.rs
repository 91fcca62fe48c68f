//! Flat string records: the workspace's one line codec.
//!
//! The `apex serve` wire protocol, the sweep journal, the variant-cache
//! entry envelope and the chaos report all write one flat JSON object
//! per line with string values and sorted keys, through this module.
//! [`decode`] is strict — nesting, numbers, duplicate keys, unknown
//! escapes and trailing bytes are rejected, never guessed at — and
//! [`seal`] / [`open`] are the one checksum framing for durable records:
//! a `sum` field holding the [`fnv1a`] of every other key and value,
//! which must match exactly.

use crate::fnv1a;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An ordered flat string-to-string map — the only value shape a record
/// has. Sorted keys make [`encode`] byte-stable.
pub type Fields = BTreeMap<String, String>;

/// Builds [`Fields`] from `(key, value)` pairs (a later duplicate wins).
pub fn fields(pairs: &[(&str, &str)]) -> Fields {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

/// The key [`seal`] writes its checksum under.
const SUM: &str = "sum";

fn esc_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// Strict inverse of [`esc_into`]; `None` on any escape the encoder
/// never produces.
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let c = u32::from_str_radix(&hex, 16)
                    .ok()
                    .and_then(char::from_u32)?;
                // only the exact spelling the encoder writes for `c`
                let mut canonical = String::new();
                esc_into(&mut canonical, c.encode_utf8(&mut [0; 4]));
                if canonical != format!("\\u{hex}") {
                    return None;
                }
                out.push(c);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Splits `s` at the first unescaped `"`, returning the raw (still
/// escaped) content and the remainder after the quote.
fn take_quoted(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some((&s[..i], &s[i + 1..])),
            _ => i += 1,
        }
    }
    None
}

/// Encodes a flat object as one line (no trailing newline). Keys are
/// emitted in sorted order so identical content is identical bytes.
pub fn encode(fields: &Fields) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        esc_into(&mut out, k);
        out.push_str("\":\"");
        esc_into(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Decodes one line into a flat object. `None` on anything that is not
/// exactly `{"k":"v",...}` with [`encode`]'s escaping — duplicate keys,
/// nesting, numbers and trailing bytes all fail. Surrounding whitespace
/// is ignored.
pub fn decode(line: &str) -> Option<Fields> {
    let mut rest = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Fields::new();
    while !rest.is_empty() {
        if !fields.is_empty() {
            rest = rest.strip_prefix(',')?;
        }
        let (key_raw, after_key) = take_quoted(rest.strip_prefix('"')?)?;
        let (val_raw, after_val) = take_quoted(after_key.strip_prefix(":\"")?)?;
        rest = after_val;
        if fields.insert(unesc(key_raw)?, unesc(val_raw)?).is_some() {
            return None; // duplicate key: ambiguous, reject
        }
    }
    Some(fields)
}

/// The checksum [`seal`] stores: FNV-1a over every key and value except
/// `sum` itself, in key order.
fn checksum(fields: &Fields) -> String {
    let parts: Vec<&str> = fields
        .iter()
        .filter(|(k, _)| k.as_str() != SUM)
        .flat_map(|(k, v)| [k.as_str(), v.as_str()])
        .collect();
    format!("{:016x}", fnv1a(&parts))
}

/// Encodes `fields` as one sealed line: [`encode`] plus a `sum` field
/// (any `sum` already present is replaced).
pub fn seal(mut fields: Fields) -> String {
    let sum = checksum(&fields);
    fields.insert(SUM.to_owned(), sum);
    encode(&fields)
}

/// Decodes a [`seal`]ed line and returns its fields without `sum`;
/// `None` when the line does not decode, has no `sum`, or the `sum` is
/// not exactly the checksum of the other fields.
pub fn open(line: &str) -> Option<Fields> {
    let mut fields = decode(line)?;
    let sum = fields.remove(SUM)?;
    (sum == checksum(&fields)).then_some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_round_trips() {
        let f = fields(&[("op", "submit"), ("graph", "line1\nline2\t\"x\\y\"\u{1}")]);
        let line = encode(&f);
        let want = r#"{"graph":"line1\nline2\t\"x\\y\"\u0001","op":"submit"}"#;
        assert_eq!(line, want, "sorted keys, one line, C0 controls escaped");
        assert_eq!(decode(&line), Some(f));
    }

    #[test]
    fn decode_rejects_what_the_encoder_never_writes() {
        let rejected = [
            r#"not json"#,
            r#"{"a":1}"#,           // numbers
            r#"{"a":{"b":"c"}}"#,   // nesting
            r#"{"a":"x","a":"y"}"#, // duplicate keys
            r#"{"a":"\q"}"#,        // unknown escape
            r#"{"a":"x"}trailing"#, // trailing bytes
            r#"{"a":"\u001F"}"#,    // `\u` other than as encoded
            r#"{"a":"\u00+1"}"#,
            r#"{"a":"\u000a"}"#,
            r#"{"a":"\u0020"}"#,
            r#"{"a":"\u00e9"}"#,
            r#"{"a":"\u01"}"#,
            r#"{"a":"\u"}"#,
        ];
        for line in rejected {
            assert!(decode(line).is_none(), "{line}");
        }
        assert_eq!(decode("{}"), Some(Fields::new()));
    }

    /// Characters the generator draws from: every short escape, other C0
    /// controls, JSON structure, and multi-byte text.
    const ALPHABET: &[char] = &[
        '\\', '"', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1b}', '\u{1f}', '{', '}', ':', ',', 'a',
        'Z', '0', ' ', 'u', 'é', 'λ', '→', '😀',
    ];

    fn text(codes: &[u8]) -> String {
        codes
            .iter()
            .map(|&c| ALPHABET[usize::from(c) % ALPHABET.len()])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sealed_records_round_trip_and_reject_any_damage(
            key in prop::collection::vec(any::<u8>(), 0..6),
            value in prop::collection::vec(any::<u8>(), 0..24),
            payload in prop::collection::vec(any::<u8>(), 0..24),
        ) {
            let f = fields(&[(&text(&key), &text(&value)), ("payload", &text(&payload))]);
            let line = encode(&f);
            prop_assert!(!line.contains(['\n', '\r']), "one line: {line:?}");
            prop_assert_eq!(decode(&line), Some(f.clone()));
            prop_assert!(open(&line).is_none(), "an unsealed record opened");

            let sealed = seal(f.clone());
            prop_assert_eq!(open(&sealed), Some(f));
            let bytes = sealed.as_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(open(&String::from_utf8_lossy(&bytes[..cut])).is_none(), "cut {cut}");
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(open(&String::from_utf8_lossy(&flipped)).is_none(), "bit {bit}");
            }
        }
    }
}
