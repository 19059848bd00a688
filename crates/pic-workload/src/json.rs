//! The one JSON writer for workloads and the grids that carry them.
//!
//! [`PrettyJson`] renders straight into one `String`, byte for byte what
//! `serde_json::to_string_pretty` makes of the derived `Serialize` (which
//! stays as the test oracle): two-space indentation, `[]` and `{}` for
//! empty containers, integers in decimal, floats via `{:?}` and `null` for
//! `None` and non-finite values. No value tree is built: the indentation is
//! sliced from a static string and integers go through a stack buffer.

use std::fmt::Write;

/// Spaces the indentation of any depth is sliced from.
const SPACES: &str = "                                ";

/// A pretty-printing JSON writer over one `String`. Containers are opened
/// and closed explicitly; inside an object, each value follows its
/// [`PrettyJson::key`].
#[derive(Debug, Default)]
pub struct PrettyJson {
    out: String,
    depth: usize,
    /// The innermost open container has no item yet.
    first: bool,
    /// A key was just written, so the next value continues its line.
    after_key: bool,
}

impl PrettyJson {
    /// The rendered text.
    pub fn finish(self) -> String {
        self.out
    }

    /// Start a value: after a key it continues the key's line; inside a
    /// container it goes on a new, indented line after a comma if needed.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn newline(&mut self) {
        self.out.push('\n');
        let mut n = 2 * self.depth;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.push_str(&SPACES[..k]);
            n -= k;
        }
    }

    fn open(&mut self, bracket: char) {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// The key of the next object member. `key` is written as it is, so
    /// it must need no escaping (no quote, backslash or control character).
    pub fn key(&mut self, key: &str) {
        self.string(key);
        self.out.push_str(": ");
        self.after_key = true;
    }

    /// A string value that needs no escaping, as [`PrettyJson::key`].
    pub fn string(&mut self, s: &str) {
        debug_assert!(
            !s.chars().any(|c| c == '"' || c == '\\' || c < ' '),
            "{s:?} needs escaping"
        );
        self.item();
        self.out.push('"');
        self.out.push_str(s);
        self.out.push('"');
    }

    /// An unsigned integer.
    pub fn uint(&mut self, v: u64) {
        self.item();
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut v = v;
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend(buf[at..].iter().map(|&d| char::from(d)));
    }

    /// A float: shortest round-trip form via `{:?}`, `null` when not finite.
    pub fn float(&mut self, v: f64) {
        if !v.is_finite() {
            return self.null();
        }
        self.item();
        write!(self.out, "{v:?}").expect("writing to a String cannot fail");
    }

    /// `null`.
    pub fn null(&mut self) {
        self.item();
        self.out.push_str("null");
    }

    /// An array of unsigned integers.
    pub fn uints(&mut self, values: impl IntoIterator<Item = u64>) {
        self.begin_array();
        for v in values {
            self.uint(v);
        }
        self.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Migrations = Vec<(u32, u32, u32)>;

    fn render(write: impl FnOnce(&mut PrettyJson)) -> String {
        let mut w = PrettyJson::default();
        write(&mut w);
        w.finish()
    }

    #[test]
    fn matches_serde_pretty_on_nested_shapes() {
        let value: (Vec<Migrations>, Vec<Option<usize>>) = (
            vec![vec![], vec![(0, 1, 2), (3, 4, u32::MAX)]],
            vec![Some(5), None],
        );
        let got = render(|w| {
            w.begin_array();
            w.begin_array();
            for sample in &value.0 {
                w.begin_array();
                for &(a, b, c) in sample {
                    w.uints([a, b, c].map(u64::from));
                }
                w.end_array();
            }
            w.end_array();
            w.begin_array();
            for b in &value.1 {
                match b {
                    Some(n) => w.uint(*n as u64),
                    None => w.null(),
                }
            }
            w.end_array();
            w.end_array();
        });
        assert_eq!(got, serde_json::to_string_pretty(&value).unwrap());
    }

    #[test]
    fn scalars_match_serde() {
        for v in [0u64, 7, 10, 99, 100, u32::MAX as u64, u64::MAX] {
            assert_eq!(render(|w| w.uint(v)), serde_json::to_string(&v).unwrap());
        }
        for v in [
            0.1 + 0.2,
            1e-7,
            1e21,
            5e-324,
            -0.0,
            2.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert_eq!(render(|w| w.float(v)), serde_json::to_string(&v).unwrap());
        }
        assert_eq!(render(|w| w.uints([])), "[]");
        let deep = render(|w| {
            for _ in 0..20 {
                w.begin_array();
            }
            w.uint(1);
            for _ in 0..20 {
                w.end_array();
            }
        });
        let mut nested = serde::Value::UInt(1);
        for _ in 0..20 {
            nested = serde::Value::Array(vec![nested]);
        }
        assert_eq!(
            deep,
            serde_json::to_string_pretty(&ValueOf(nested)).unwrap()
        );
    }

    /// A ready-made value tree, serialized as itself.
    struct ValueOf(serde::Value);

    impl serde::Serialize for ValueOf {
        fn serialize(&self) -> serde::Value {
            self.0.clone()
        }
    }
}
