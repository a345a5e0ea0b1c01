//! `json_str` escapes a run of plain bytes at a time; its output must
//! stay byte-identical to escaping one character at a time, which the
//! reference below keeps.

use superc::analyze::render::{json_str, push_json_str};
use superc_util::SmallRng;

/// The character-by-character escaper `json_str` replaced.
fn reference(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn json_str_matches_a_char_by_char_reference() {
    // Every control character, the two escaped printables, DEL, plain
    // ASCII and multi-byte UTF-8 of every length.
    let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
    alphabet.extend(['"', '\\', '\u{7f}', 'a', 'Z', ' ', '/', '{', '}']);
    alphabet.extend(['é', 'ß', '€', '中', '\u{2028}', '𝄞', '😀']);
    let every: String = alphabet.iter().collect();
    assert_eq!(json_str(&every), reference(&every), "the whole alphabet");
    assert_eq!(json_str(""), "\"\"");
    let mut rng = SmallRng::seed_from_u64(0x1507_e5c4);
    for case in 0..2000 {
        let len = rng.gen_range(0..64);
        // Runs of plain text between escapes, as in a lint document.
        let s: String = (0..len)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    'x'
                } else {
                    alphabet[rng.gen_range(0..alphabet.len())]
                }
            })
            .collect();
        let want = reference(&s);
        assert_eq!(json_str(&s), want, "case {case}: {s:?}");
        let mut pushed = String::from("prefix:");
        push_json_str(&mut pushed, &s);
        assert_eq!(
            pushed,
            format!("prefix:{want}"),
            "case {case}: push_json_str"
        );
    }
}
