//! Randomized property tests for the JSON parser: generated values survive
//! both renderings, and damaged documents are rejected without a panic.
//! Cases are drawn from fixed seeds via `wcp_obs::rng::Rng`, so failures
//! reproduce exactly.

use wcp_obs::json::{Json, Key};
use wcp_obs::rng::Rng;

const CASES: usize = 300;

/// Key lengths in bytes: empty, either side of the inline limit
/// ([`Key::INLINE`] = 22), and long.
const KEY_LENGTHS: [usize; 5] = [0, 21, 22, 23, 64];

/// A string of exactly `len` bytes. Plain strings are ASCII letters; the
/// others also draw characters the writer escapes (`"`, `\`, control
/// bytes) and a two-byte character (`é`).
fn text(rng: &mut Rng, len: usize) -> String {
    let plain = rng.gen_bool(0.5);
    let mut s = String::with_capacity(len);
    while s.len() < len {
        let c = match rng.gen_range(0u32..12) {
            0 if !plain => '"',
            1 if !plain => '\\',
            2 if !plain => '\n',
            3 if !plain => '\u{1}',
            4 | 5 if !plain && len - s.len() >= 2 => 'é',
            _ => char::from(b'a' + rng.gen_range(0u32..26) as u8),
        };
        s.push(c);
    }
    s
}

fn value(rng: &mut Rng, depth: usize) -> Json {
    let leaf_only = depth >= 4;
    match rng.gen_range(0u32..if leaf_only { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::UInt(match rng.gen_range(0u32..3) {
            0 => rng.gen_range(0u64..10),
            1 => rng.next_u64(),
            _ => u64::MAX,
        }),
        3 => Json::Int(-1 - rng.gen_range(0u64..=i64::MAX as u64) as i64),
        // Odd eighths: never integral, exact in binary, both signs.
        4 => Json::Float((2 * rng.gen_range(0u64..1 << 20) + 1) as f64 / 8.0 - 65536.0),
        5 => {
            let len = rng.gen_range(0usize..30);
            Json::Str(text(rng, len))
        }
        6 => Json::Arr(
            (0..rng.gen_range(0usize..5))
                .map(|_| value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..5))
                .map(|_| {
                    let len = KEY_LENGTHS[rng.gen_range(0..KEY_LENGTHS.len())];
                    (Key::from(text(rng, len).as_str()), value(rng, depth + 1))
                })
                .collect(),
        ),
    }
}

/// `parse` inverts both renderings, and also reads `é` written as the
/// escape `\u00e9` (the writer emits it raw; it only occurs inside
/// strings, so the substitution keeps the document equivalent).
#[test]
fn parse_inverts_compact_and_pretty_rendering() {
    let mut rng = Rng::seed_from_u64(41);
    let mut keys = 0;
    for _ in 0..CASES {
        let v = value(&mut rng, 0);
        let compact = v.to_string();
        let pretty = v.pretty();
        assert_eq!(Json::parse(&compact).as_ref(), Ok(&v), "{compact}");
        assert_eq!(Json::parse(&pretty).as_ref(), Ok(&v), "{pretty}");
        let escaped = compact.replace('é', "\\u00e9");
        assert_eq!(Json::parse(&escaped).as_ref(), Ok(&v), "{escaped}");
        keys += compact.matches("\":").count();
    }
    assert!(keys > 100, "the generator should produce objects");
}

/// A pretty-printed 3-process trace in the format `wcp generate` writes.
fn trace_text() -> String {
    let send = |to: u64, msg: u64| {
        Json::obj([(
            "Send",
            Json::obj([("to", Json::UInt(to)), ("msg", Json::UInt(msg))]),
        )])
    };
    let recv = |from: u64, msg: u64| {
        Json::obj([(
            "Receive",
            Json::obj([("from", Json::UInt(from)), ("msg", Json::UInt(msg))]),
        )])
    };
    let process = |events: Vec<Json>, pred: Vec<bool>| {
        Json::obj([("events", Json::Arr(events)), ("pred", Json::from(pred))])
    };
    Json::obj([(
        "processes",
        Json::Arr(vec![
            process(vec![send(1, 0), recv(2, 1)], vec![true, false, true]),
            process(vec![recv(0, 0), send(2, 2)], vec![false, true, false]),
            process(vec![send(0, 1), recv(1, 2)], vec![false, false, true]),
        ]),
    )])
    .pretty()
}

/// Every strict prefix and every single-byte deletion of a trace parses to
/// a value or an error; none panics.
#[test]
fn damaged_trace_text_never_panics() {
    let text = trace_text();
    assert!(text.is_ascii());
    let whole = Json::parse(&text).expect("the undamaged trace parses");
    assert_eq!(whole.pretty(), text);
    for end in 0..text.len() {
        assert!(Json::parse(&text[..end]).is_err(), "prefix of {end} bytes");
    }
    let mut parsed = 0;
    for i in 0..text.len() {
        let mut damaged = text.clone();
        damaged.remove(i);
        parsed += usize::from(Json::parse(&damaged).is_ok());
    }
    // Deleting indentation leaves the document intact.
    assert!(parsed > 0 && parsed < text.len());
}
