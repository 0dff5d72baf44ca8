//! Property tests of the trace line codec: the JSON parser never panics
//! on hostile input, and every record survives an emit → parse round
//! trip.

use proptest::collection::vec;
use proptest::prelude::*;

use perigee_telemetry::{JsonValue, TraceRecord};

/// Characters a name is drawn from: plain ASCII, everything the emitter
/// escapes (quote, backslash, newline, tab, other control characters) and
/// multi-byte UTF-8 up to a four-byte emoji.
const NAME_CHARS: [char; 14] = [
    'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '→', '😀',
];

/// Bytes that steer a random line into the parser's deeper states.
const JSON_BYTES: &[u8] = b"{}[]\",:0123456789-+.eE truefalsn\\/u\n\t";

fn name() -> impl Strategy<Value = String> {
    vec(0..NAME_CHARS.len(), 0..8).prop_map(|ix| ix.into_iter().map(|i| NAME_CHARS[i]).collect())
}

/// Any `f64`, weighted toward the values JSON cannot spell or spells
/// oddly: −0.0, subnormals, ±∞, NaN, and whole numbers of up to 20
/// digits, which the emitter writes without a fraction.
fn float() -> impl Strategy<Value = f64> {
    (0u8..8, any::<u64>()).prop_map(|(kind, bits)| match kind {
        0 => -0.0,
        1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        5 => (bits >> (bits % 64)) as f64,
        _ => f64::from_bits(bits),
    })
}

fn record() -> impl Strategy<Value = TraceRecord> {
    (
        (name(), name(), any::<u64>(), any::<u64>()),
        vec((name(), float()), 0..6),
        vec((name(), any::<u64>()), 0..6),
        vec((name(), float()), 0..6),
    )
        .prop_map(
            |((kind, run, seed, round), phases_s, counters, values)| TraceRecord {
                kind,
                run,
                seed,
                round,
                phases_s,
                counters,
                values,
            },
        )
}

/// Floats come back bit for bit when finite and as NaN otherwise: the
/// emitter writes every non-finite float as `null`.
fn same_float(sent: f64, back: f64) -> bool {
    if sent.is_finite() {
        sent.to_bits() == back.to_bits()
    } else {
        back.is_nan()
    }
}

/// Parses `text` and, if it is JSON, reads it as a record. Either step
/// may refuse the input; neither may panic.
fn parse_and_read(text: &str) {
    if let Ok(value) = JsonValue::parse(text) {
        let _ = TraceRecord::from_json(&value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, read as lossy UTF-8, parse or fail with a
    /// `JsonError`. Half the bytes come from JSON's own alphabet so the
    /// parser gets past its first token.
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(
        picks in vec((any::<bool>(), any::<u8>()), 0..200),
    ) {
        let bytes: Vec<u8> = picks
            .into_iter()
            .map(|(json, b)| if json { JSON_BYTES[b as usize % JSON_BYTES.len()] } else { b })
            .collect();
        parse_and_read(&String::from_utf8_lossy(&bytes));
    }

    /// A valid trace line with a few bytes overwritten, inserted or
    /// deleted, or cut short, parses or fails with an error.
    #[test]
    fn parse_never_panics_on_mutated_trace_lines(
        rec in record(),
        edits in vec((0u8..4, any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = rec.to_json().into_bytes();
        for (op, at, b) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = b,
                1 => bytes.insert(at, JSON_BYTES[b as usize % JSON_BYTES.len()]),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        parse_and_read(&String::from_utf8_lossy(&bytes));
    }

    /// Every field of an arbitrary record survives `to_json` →
    /// `JsonValue::parse` → `from_json`: names with escapes and non-ASCII
    /// characters, any `u64`, and every float by the `null` rule.
    #[test]
    fn records_round_trip_through_json(rec in record()) {
        let line = rec.to_json();
        prop_assert!(!line.contains('\n'), "one record is one line: {line}");
        let value = JsonValue::parse(&line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
        let back = TraceRecord::from_json(&value).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back.kind, &rec.kind);
        prop_assert_eq!(&back.run, &rec.run);
        prop_assert_eq!(back.seed, rec.seed);
        prop_assert_eq!(back.round, rec.round);
        prop_assert_eq!(&back.counters, &rec.counters);
        for (field, sent, got) in [
            ("phases_s", &rec.phases_s, &back.phases_s),
            ("values", &rec.values, &back.values),
        ] {
            prop_assert_eq!(sent.len(), got.len(), "{} in {}", field, line);
            for ((sent_name, sent), (got_name, got)) in sent.iter().zip(got) {
                prop_assert_eq!(sent_name, got_name);
                prop_assert!(same_float(*sent, *got), "{field} {sent_name:?}: {sent:e} came back {got:e} in {line}");
            }
        }
    }
}
