//! Column values.
//!
//! PIER tuples are self-describing (§3.3.1): there is no catalog, so every
//! value carries its own runtime type and operators perform *best-effort*
//! type checking at evaluation time — a tuple whose field has an
//! incompatible type is simply discarded by the operator that notices
//! (§3.3.4, "Malformed Tuples").  The original system used Java objects as
//! its type system; here a closed enum covers the types the paper's
//! applications use.
//!
//! **Zero-copy representation.**  Strings and byte payloads are held behind
//! `Arc<str>` / `Arc<[u8]>`, so [`Value::clone`](Clone) is a reference-count
//! bump for every variant — no heap traffic.  Combined with the interned
//! schemas of [`crate::tuple`] and tuples storing their values as
//! `Arc<[Value]>`, cloning a tuple (which the dataflow does constantly:
//! fan-out to multiple opgraphs, join-state insertion, batch slicing) is
//! allocation-free end to end.  The `Arc`s are plain `std` shared pointers —
//! the wire format is unaffected; only the in-memory representation shares.

use pier_runtime::WireSize;
use std::cmp::Ordering;
use std::sync::Arc;

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / unknown value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (shared; cloning bumps a reference count).
    Str(Arc<str>),
    /// Opaque bytes (packet payloads, file digests, …; shared on clone).
    Bytes(Arc<[u8]>),
}

impl From<pier_telemetry::Cell<'_>> for Value {
    fn from(cell: pier_telemetry::Cell<'_>) -> Value {
        match cell {
            pier_telemetry::Cell::Int(i) => Value::Int(i),
            pier_telemetry::Cell::Float(f) => Value::Float(f),
            pier_telemetry::Cell::Str(s) => Value::str(s),
        }
    }
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a bytes value from a byte slice.
    pub fn bytes(b: impl AsRef<[u8]>) -> Value {
        Value::Bytes(Arc::from(b.as_ref()))
    }

    /// Short type name, used in error messages and tests.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bytes(_) => "bytes",
        }
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one (ints and floats only —
    /// best-effort semantics do not coerce strings).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it has one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Boolean view of the value, if it has one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Canonical string used as a DHT partitioning key.  Values that compare
    /// equal must produce identical key strings, because the key determines
    /// the object's routing identifier.
    pub fn key_string(&self) -> String {
        let mut out = String::with_capacity(12);
        self.write_key(&mut out);
        out
    }

    /// Append the canonical key representation to `out` without allocating a
    /// fresh string per value — the building block of the multi-column
    /// partition keys assembled on the rehash/group-by hot path.
    pub fn write_key(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Value::Null => out.push('∅'),
            Value::Bool(b) => {
                out.push_str(if *b { "b:true" } else { "b:false" });
            }
            Value::Int(i) => {
                let _ = write!(out, "i:{i}");
            }
            Value::Float(f) => {
                let _ = write!(out, "f:{f}");
            }
            Value::Str(s) => {
                out.push_str("s:");
                out.push_str(s);
            }
            Value::Bytes(b) => {
                out.push_str("x:");
                for byte in b.iter() {
                    let _ = write!(out, "{byte:02x}");
                }
            }
        }
    }

    /// Best-effort comparison: `None` when the two values are not comparable
    /// (different, non-numeric types), which causes the comparing operator to
    /// discard the tuple.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl Value {
    /// Borrowed view of this value — see [`ValueRef`].
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bytes(b) => ValueRef::Bytes(b),
        }
    }

    /// Append this value's exact byte encoding to `buf`: a 1-byte type tag
    /// followed by the payload (integers and floats little-endian, strings
    /// and bytes length-prefixed with `u32` LE).  [`Value::wire_size`] is by
    /// construction the number of bytes this appends.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Bool(b) => {
                buf.push(1);
                buf.push(u8::from(*b));
            }
            Value::Int(i) => {
                buf.push(2);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(3);
                buf.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(4);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                buf.push(5);
                buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
                buf.extend_from_slice(b);
            }
        }
    }

    /// Decode one value from the front of `buf`, returning it and the number
    /// of bytes consumed.  `None` on truncated or unknown-tag input (the
    /// caller treats the record as torn, per the durability layer's policy).
    pub fn decode(buf: &[u8]) -> Option<(Value, usize)> {
        let tag = *buf.first()?;
        let rest = &buf[1..];
        match tag {
            0 => Some((Value::Null, 1)),
            // One encoding per value: what decodes re-encodes to the same
            // bytes.
            1 => match *rest.first()? {
                b @ (0 | 1) => Some((Value::Bool(b == 1), 2)),
                _ => None,
            },
            2 => {
                let b: [u8; 8] = rest.get(..8)?.try_into().ok()?;
                Some((Value::Int(i64::from_le_bytes(b)), 9))
            }
            3 => {
                let b: [u8; 8] = rest.get(..8)?.try_into().ok()?;
                Some((Value::Float(f64::from_le_bytes(b)), 9))
            }
            4 => {
                let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let s = rest.get(4..4 + len)?;
                let s = std::str::from_utf8(s).ok()?;
                Some((Value::str(s), 5 + len))
            }
            5 => {
                let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let b = rest.get(4..4 + len)?;
                Some((Value::bytes(b), 5 + len))
            }
            _ => None,
        }
    }
}

/// A borrowed scalar — the view type the typed columnar layout hands out.
///
/// Typed columns ([`crate::column::Column`]) store native `i64`/`f64` buffers
/// and string bytes in shared arenas, so there is no stored [`Value`] to
/// return a `&Value` to.  `ValueRef` is the layout-independent scalar view:
/// copying one is free (it is at most a fat pointer), and every best-effort
/// accessor ([`as_f64`](ValueRef::as_f64), [`compare`](ValueRef::compare),
/// [`write_key`](ValueRef::write_key)) matches the owned [`Value`]
/// counterpart bit for bit — the differential oracle suite pins this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Absent / unknown value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed UTF-8 string (into a dictionary entry or a chunk arena).
    Str(&'a str),
    /// Borrowed opaque bytes.
    Bytes(&'a [u8]),
}

impl<'a> ValueRef<'a> {
    /// Short type name, used in error messages and tests.
    pub fn type_name(&self) -> &'static str {
        match self {
            ValueRef::Null => "null",
            ValueRef::Bool(_) => "bool",
            ValueRef::Int(_) => "int",
            ValueRef::Float(_) => "float",
            ValueRef::Str(_) => "string",
            ValueRef::Bytes(_) => "bytes",
        }
    }

    /// True when the view is [`ValueRef::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Numeric view — same coercions as [`Value::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(*i as f64),
            ValueRef::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view — same coercions as [`Value::as_i64`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(*i),
            ValueRef::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Boolean view — same coercions as [`Value::as_bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ValueRef::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view, if the value is a string.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Materialise an owned [`Value`] (allocates for strings borrowed from
    /// an arena; dictionary-backed accessors avoid this by handing out the
    /// shared `Arc<str>` directly).
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(*b),
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Float(f) => Value::Float(*f),
            ValueRef::Str(s) => Value::str(s),
            ValueRef::Bytes(b) => Value::bytes(b),
        }
    }

    /// Append the canonical key representation — byte-identical to
    /// [`Value::write_key`] on the materialised value.
    pub fn write_key(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            ValueRef::Null => out.push('∅'),
            ValueRef::Bool(b) => out.push_str(if *b { "b:true" } else { "b:false" }),
            ValueRef::Int(i) => {
                let _ = write!(out, "i:{i}");
            }
            ValueRef::Float(f) => {
                let _ = write!(out, "f:{f}");
            }
            ValueRef::Str(s) => {
                out.push_str("s:");
                out.push_str(s);
            }
            ValueRef::Bytes(b) => {
                out.push_str("x:");
                for byte in *b {
                    let _ = write!(out, "{byte:02x}");
                }
            }
        }
    }

    /// Best-effort comparison — identical outcomes to [`Value::compare`].
    pub fn compare(&self, other: &ValueRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (ValueRef::Int(a), ValueRef::Int(b)) => Some(a.cmp(b)),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.partial_cmp(b),
            (ValueRef::Int(a), ValueRef::Float(b)) => (*a as f64).partial_cmp(b),
            (ValueRef::Float(a), ValueRef::Int(b)) => a.partial_cmp(&(*b as f64)),
            (ValueRef::Str(a), ValueRef::Str(b)) => Some(a.cmp(b)),
            (ValueRef::Bool(a), ValueRef::Bool(b)) => Some(a.cmp(b)),
            (ValueRef::Bytes(a), ValueRef::Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Compare against an owned constant without materialising.
    pub fn compare_value(&self, other: &Value) -> Option<Ordering> {
        self.compare(&other.as_ref())
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        v.as_ref()
    }
}

impl std::fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueRef::Null => write!(f, "NULL"),
            ValueRef::Bool(b) => write!(f, "{b}"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Str(s) => write!(f, "{s}"),
            ValueRef::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl WireSize for Value {
    fn wire_size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Bytes(b) => 4 + b.len(),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(Arc::from(v))
    }
}
impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::Bytes(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparisons_cross_type() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Int(2).compare(&Value::Int(5)), Some(Ordering::Less));
        assert_eq!(
            Value::Float(2.5).compare(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn incompatible_types_are_incomparable() {
        assert_eq!(Value::Str("5".into()).compare(&Value::Int(5)), None);
        assert_eq!(Value::Null.compare(&Value::Int(5)), None);
        assert_eq!(Value::Bool(true).compare(&Value::Str("true".into())), None);
    }

    #[test]
    fn key_strings_distinguish_types_and_values() {
        assert_ne!(
            Value::Int(1).key_string(),
            Value::Str("1".into()).key_string()
        );
        assert_ne!(Value::Int(1).key_string(), Value::Int(2).key_string());
        assert_eq!(Value::Int(7).key_string(), Value::Int(7).key_string());
        assert_eq!(Value::bytes([0xab]).key_string(), "x:ab");
    }

    #[test]
    fn accessors_follow_best_effort_semantics() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Str("4".into()).as_f64(), None);
        assert_eq!(Value::Float(4.9).as_i64(), Some(4));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_bool(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn wire_size_scales() {
        assert!(Value::Str("hello world".into()).wire_size() > Value::Int(1).wire_size());
        assert_eq!(Value::Null.wire_size(), 1);
    }

    #[test]
    fn clones_share_the_heap_allocation() {
        let s = Value::str("a long enough string to definitely heap-allocate");
        let s2 = s.clone();
        match (&s, &s2) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
        let b = Value::bytes([1u8, 2, 3, 4]);
        let b2 = b.clone();
        match (&b, &b2) {
            (Value::Bytes(a), Value::Bytes(c)) => assert!(Arc::ptr_eq(a, c)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn value_ref_mirrors_value_semantics() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::str("abc"),
            Value::bytes([1, 2]),
        ];
        for a in &vals {
            assert_eq!(a.as_ref().to_value(), *a);
            assert_eq!(a.as_ref().is_null(), a.is_null());
            assert_eq!(a.as_ref().as_f64(), a.as_f64());
            assert_eq!(a.as_ref().as_i64(), a.as_i64());
            assert_eq!(a.as_ref().as_bool(), a.as_bool());
            assert_eq!(a.as_ref().as_str(), a.as_str());
            assert_eq!(a.as_ref().to_string(), a.to_string());
            let (mut k1, mut k2) = (String::new(), String::new());
            a.write_key(&mut k1);
            a.as_ref().write_key(&mut k2);
            assert_eq!(k1, k2);
            for b in &vals {
                assert_eq!(a.as_ref().compare(&b.as_ref()), a.compare(b), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn encode_decode_round_trips_and_matches_wire_size() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::str("héllo"),
            Value::bytes([0u8, 255]),
        ];
        for v in &vals {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), v.wire_size(), "{v:?}");
            let (back, used) = Value::decode(&buf).unwrap();
            assert_eq!(used, buf.len());
            // Bit-level equality, not just PartialEq (−0.0 == 0.0 as floats).
            let mut again = Vec::new();
            back.encode(&mut again);
            assert_eq!(buf, again, "{v:?}");
        }
        assert_eq!(Value::decode(&[2, 1, 2]), None); // truncated int
        assert_eq!(Value::decode(&[9]), None); // unknown tag
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::bytes([1, 2, 3]).to_string(), "<3 bytes>");
    }
}
